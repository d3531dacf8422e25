//! Diagnostics, waiver bookkeeping, and the rendered report.

use std::fmt::Write as _;

/// One finding: file:line, rule id, what broke, and how to fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`dirty-mark`, `lock-order`, `panic-path`,
    /// `feature-gate`, or `bad-waiver`).
    pub rule: String,
    /// What is wrong.
    pub message: String,
    /// How to fix or legitimately silence it.
    pub hint: String,
}

/// One waiver as it appears in the inventory.
#[derive(Debug, Clone)]
pub struct WaiverEntry {
    /// File containing the waiver comment.
    pub file: String,
    /// Line of the waiver comment.
    pub line: u32,
    /// Rules waived.
    pub rules: Vec<String>,
    /// The written justification.
    pub justification: String,
    /// Line range `(from, to)` of findings this waiver covers.
    pub covers: (u32, u32),
    /// Whether any finding was actually silenced by it.
    pub used: bool,
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unwaived findings — any of these fails the gate.
    pub findings: Vec<Diagnostic>,
    /// Findings silenced by a waiver, with the justification used.
    pub waived: Vec<(Diagnostic, String)>,
    /// Every waiver in the scanned source (the drift inventory).
    pub waivers: Vec<WaiverEntry>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when the gate should pass.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Deterministic ordering for rendering and golden tests.
    pub fn sort(&mut self) {
        let key = |d: &Diagnostic| (d.file.clone(), d.line, d.rule.clone(), d.message.clone());
        self.findings.sort_by_key(key);
        self.waived.sort_by_key(|(d, _)| key(d));
        self.waivers
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }

    /// Render the full report (findings, waived inventory, waiver list,
    /// summary) as stable text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        if !self.findings.is_empty() {
            let _ = writeln!(s, "findings:");
            for d in &self.findings {
                let _ = writeln!(s, "  {}:{}: [{}] {}", d.file, d.line, d.rule, d.message);
                if !d.hint.is_empty() {
                    let _ = writeln!(s, "      hint: {}", d.hint);
                }
            }
        }
        if !self.waived.is_empty() {
            let _ = writeln!(s, "waived:");
            for (d, just) in &self.waived {
                let _ = writeln!(
                    s,
                    "  {}:{}: [{}] {} — waived: {}",
                    d.file, d.line, d.rule, d.message, just
                );
            }
        }
        if !self.waivers.is_empty() {
            let _ = writeln!(s, "waiver inventory:");
            for w in &self.waivers {
                let _ = writeln!(
                    s,
                    "  {}:{}: allow({}) — {}{}",
                    w.file,
                    w.line,
                    w.rules.join(", "),
                    w.justification,
                    if w.used { "" } else { " [unused]" }
                );
            }
        }
        let _ = writeln!(
            s,
            "mmdb-lint: {} finding(s), {} waived, {} waiver(s), {} file(s) scanned",
            self.findings.len(),
            self.waived.len(),
            self.waivers.len(),
            self.files_scanned
        );
        s
    }
}
