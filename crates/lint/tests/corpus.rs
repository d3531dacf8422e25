//! Self-test over the fixture corpus: every seeded violation must be
//! detected (100% across all four rules), clean fixtures must stay
//! silent, and the rendered report must match the golden snapshot
//! byte-for-byte.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmdb_lint::policy::Policy;

fn corpus_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/corpus")
}

fn corpus_report() -> mmdb_lint::diag::LintReport {
    let root = corpus_root();
    let policy_text = std::fs::read_to_string(root.join("fixture.policy")).unwrap();
    mmdb_lint::lint_root(&root, &policy_text).unwrap()
}

/// `(file, line, rule)` of every violation seeded into the corpus.
const SEEDED: &[(&str, u32, &str)] = &[
    ("crates/gatefix/src/lib.rs", 14, "feature-gate"),
    ("crates/gatefix/src/lib.rs", 19, "feature-gate"),
    ("crates/gatefix/src/lib.rs", 34, "bad-waiver"),
    ("crates/gatefix/src/lib.rs", 36, "feature-gate"),
    ("crates/kernelfix/src/lib.rs", 6, "panic-path"),
    ("crates/kernelfix/src/lib.rs", 11, "panic-path"),
    ("crates/kernelfix/src/lib.rs", 16, "panic-path"),
    ("crates/kernelfix/src/lib.rs", 22, "panic-path"),
    ("crates/kernelfix/src/lib.rs", 28, "panic-path"),
    ("crates/lockfix/src/lib.rs", 31, "lock-order"),
    ("crates/lockfix/src/lib.rs", 37, "lock-order"),
    ("crates/lockfix/src/lib.rs", 75, "lock-order"),
    ("crates/lockfix/src/lib.rs", 89, "lock-order"),
    ("crates/lockfix/src/lib.rs", 98, "lock-order"),
    ("crates/storagefix/src/lib.rs", 24, "dirty-mark"),
    ("crates/storagefix/src/lib.rs", 30, "dirty-mark"),
    ("crates/storagefix/src/lib.rs", 36, "dirty-mark"),
];

#[test]
fn detects_every_seeded_violation_at_its_exact_location() {
    let report = corpus_report();
    for &(file, line, rule) in SEEDED {
        assert!(
            report
                .findings
                .iter()
                .any(|d| d.file == file && d.line == line && d.rule == rule),
            "seeded {rule} violation at {file}:{line} not reported; findings:\n{}",
            report.render()
        );
    }
    assert_eq!(
        report.findings.len(),
        SEEDED.len(),
        "unexpected extra findings:\n{}",
        report.render()
    );
}

#[test]
fn waivers_silence_exactly_the_waived_sites() {
    let report = corpus_report();
    // The two well-formed waivers each silence one finding…
    assert_eq!(report.waived.len(), 2);
    assert!(report
        .waived
        .iter()
        .any(|(d, _)| d.file == "crates/kernelfix/src/lib.rs" && d.rule == "panic-path"));
    assert!(report
        .waived
        .iter()
        .any(|(d, _)| d.file == "crates/storagefix/src/lib.rs" && d.rule == "dirty-mark"));
    // …and both appear, used, in the inventory.
    assert_eq!(report.waivers.len(), 2);
    assert!(report.waivers.iter().all(|w| w.used));
    // The malformed waiver registers as a finding, not as a waiver, and
    // the violation on the line below it stays reported.
    assert!(report
        .findings
        .iter()
        .any(|d| d.rule == "bad-waiver" && d.file == "crates/gatefix/src/lib.rs"));
    assert!(report
        .findings
        .iter()
        .any(|d| d.file == "crates/gatefix/src/lib.rs" && d.line == 36));
}

#[test]
fn report_matches_golden_snapshot() {
    let report = corpus_report();
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/corpus_golden.txt");
    let golden = std::fs::read_to_string(&golden_path).unwrap();
    assert_eq!(
        report.render(),
        golden,
        "rendered report drifted from the golden snapshot; if the change is \
         intentional, regenerate with:\n  cargo run -p mmdb-lint -- \
         --root crates/lint/tests/fixtures/corpus \
         --policy crates/lint/tests/fixtures/corpus/fixture.policy \
         > crates/lint/tests/fixtures/corpus_golden.txt"
    );
}

#[test]
fn allowlisted_entry_is_not_reported() {
    let report = corpus_report();
    assert!(
        !report
            .findings
            .iter()
            .chain(report.waived.iter().map(|(d, _)| d))
            .any(|d| d.message.contains("free_fixup")),
        "policy-allowlisted `free_fixup` must not be reported"
    );
}

#[test]
fn fixture_policy_parses_with_expected_shape() {
    let root = corpus_root();
    let policy_text = std::fs::read_to_string(root.join("fixture.policy")).unwrap();
    let p = Policy::parse(&policy_text).unwrap();
    assert_eq!(p.lock.order, vec!["catalog", "relation", "partition"]);
    assert_eq!(p.dirty.allow.len(), 1);
    assert!(p.dirty.allow[0].justification.contains("dirty"));
    assert_eq!(p.dirty.bumps, vec!["mark_dirty"]);
}
