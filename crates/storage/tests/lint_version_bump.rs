//! Regression test for the dirty-partition discipline: `mmdb-lint`, run
//! with the real workspace policy, must flag a Relation mutation that
//! reaches tuple storage without marking its partition dirty — the
//! exact hazard that would drop a committed write from the log and the
//! checkpoint, losing it at restart.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmdb_lint::policy::Policy;
use mmdb_lint::SourceFile;

#[test]
fn bump_free_mutation_is_reported_at_the_exact_location() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let policy_text = std::fs::read_to_string(manifest.join("../../mmdb-lint.policy")).unwrap();
    let policy = Policy::parse(&policy_text).unwrap();
    let fixture = std::fs::read_to_string(manifest.join("tests/fixtures/bump_free.rs")).unwrap();
    // Present the fixture as if it lived in this crate's src tree so the
    // real policy's path scoping applies to it.
    let virtual_path = "crates/storage/src/zz_bump_free_fixture.rs";
    let fn_line = 1 + fixture
        .lines()
        .position(|l| l.contains("pub fn relocate"))
        .unwrap() as u32;

    let report = mmdb_lint::lint(
        &[SourceFile {
            path: virtual_path.to_string(),
            text: fixture,
        }],
        &policy,
    );

    assert!(
        report
            .findings
            .iter()
            .any(|d| d.rule == "dirty-mark" && d.file == virtual_path && d.line == fn_line),
        "expected a dirty-mark finding at {virtual_path}:{fn_line}; got:\n{}",
        report.render()
    );
    // `forward` itself (the sink) must not be flagged — only the
    // mutating entry that reaches it without the mark.
    assert_eq!(report.findings.len(), 1, "report:\n{}", report.render());
}

#[test]
fn adding_the_mark_silences_the_finding() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let policy_text = std::fs::read_to_string(manifest.join("../../mmdb-lint.policy")).unwrap();
    let policy = Policy::parse(&policy_text).unwrap();
    let fixture = std::fs::read_to_string(manifest.join("tests/fixtures/bump_free.rs")).unwrap();
    let fixed = fixture.replace(
        "self.forward(slot);",
        "self.forward(slot);\n        self.mark_dirty();",
    );
    assert_ne!(fixture, fixed);
    let report = mmdb_lint::lint(
        &[SourceFile {
            path: "crates/storage/src/zz_bump_free_fixture.rs".to_string(),
            text: fixed,
        }],
        &policy,
    );
    assert!(
        report.findings.is_empty(),
        "marked variant must be clean; got:\n{}",
        report.render()
    );
}
