//! End-to-end tests for `chime-lint`: every rule is proven twice — once
//! by a firing fixture and once by a suppressed twin — plus JSON
//! determinism and a self-check that the repo itself lints clean.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use analyzer::report::Report;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn lint_fixture(rel: &str) -> Report {
    let root = fixtures_root();
    analyzer::lint_files(&root, &[root.join(rel)]).unwrap()
}

/// Asserts `rel` produces exactly `expected` findings, all of rule `rule`.
fn assert_fires(rel: &str, rule: &str, expected: usize) -> Report {
    let r = lint_fixture(rel);
    assert_eq!(
        r.findings.len(),
        expected,
        "{rel}: expected {expected} findings, got:\n{}",
        r.to_text()
    );
    for f in &r.findings {
        assert_eq!(f.rule, rule, "{rel}: unexpected rule in:\n{}", r.to_text());
    }
    r
}

/// Asserts `rel` lints clean because `honored` suppressions applied.
fn assert_suppressed(rel: &str, honored: usize) {
    let r = lint_fixture(rel);
    assert!(
        r.findings.is_empty(),
        "{rel}: expected clean, got:\n{}",
        r.to_text()
    );
    assert_eq!(
        r.suppressions_honored, honored,
        "{rel}: wrong number of honored suppressions"
    );
}

#[test]
fn determinism_fires_and_suppresses() {
    let r = assert_fires("firing/determinism.rs", "determinism", 6);
    let msgs: Vec<&str> = r.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("Instant::now")));
    assert!(msgs.iter().any(|m| m.contains("SystemTime::now")));
    assert!(msgs.iter().any(|m| m.contains("thread::sleep")));
    assert!(msgs.iter().any(|m| m.contains("thread_rng")));
    assert!(msgs.iter().any(|m| m.contains(".keys()")));
    assert!(msgs.iter().any(|m| m.contains("`for` over")));
    assert_suppressed("suppressed/determinism.rs", 4);
}

#[test]
fn phase_balance_fires_and_suppresses() {
    let r = assert_fires("firing/phase.rs", "phase-balance", 2);
    assert!(r.findings[0].message.contains("opens 1 phase frame(s) but closes 0"));
    assert!(r.findings[1].message.contains("early exit leaks the open frame"));
    assert_suppressed("suppressed/phase.rs", 2);
}

#[test]
fn lock_discipline_fires_and_suppresses() {
    let r = assert_fires("firing/lock_discipline.rs", "lock-discipline", 2);
    assert!(r.findings.iter().any(|f| f.message.contains("never releases")));
    assert!(r.findings.iter().any(|f| f.message.contains("without invoking the seeded backoff")));
    assert_suppressed("suppressed/lock_discipline.rs", 2);
}

#[test]
fn unsafe_comment_fires_and_suppresses() {
    let r = assert_fires("firing/unsafe_comment.rs", "unsafe-comment", 1);
    assert_eq!(r.findings[0].line, 5, "only the unjustified block fires");
    assert_suppressed("suppressed/unsafe_comment.rs", 1);
}

#[test]
fn lockword_layout_fires_and_suppresses() {
    let r = assert_fires("firing/lockword.rs", "lockword-layout", 2);
    assert!(r.findings.iter().any(|f| f.message.contains("overlap")));
    assert!(r.findings.iter().any(|f| f.message.contains("documented layout")));
    assert_suppressed("suppressed/lockword.rs", 2);
}

#[test]
fn mask_consistency_fires_and_suppresses() {
    let r = assert_fires("firing/mask_consistency.rs", "mask-consistency", 2);
    assert!(r.findings.iter().any(|f| f.message.contains("cmask 0xffffffff")));
    assert!(r.findings.iter().any(|f| f.message.contains("smask 0xff00")));
    assert_suppressed("suppressed/mask_consistency.rs", 1);
}

#[test]
fn lock_order_fires_and_suppresses() {
    let r = assert_fires("firing/lock_order.rs", "lock-order", 1);
    assert!(r.findings[0].message.contains("local-slot → leaf-lock"));
    assert!(r.findings[0].message.contains("leaf-lock → local-slot"));
    assert_suppressed("suppressed/lock_order.rs", 1);
}

#[test]
fn cq_discipline_fires_and_suppresses() {
    let r = assert_fires("firing/cq.rs", "cq-discipline", 2);
    assert!(r.findings[0].message.contains("posts 1 WQE(s) but polls 0"));
    assert!(r.findings[1].message.contains("abandons the outstanding completion"));
    assert_suppressed("suppressed/cq.rs", 2);
}

#[test]
fn async_block_fires_and_suppresses() {
    let r = assert_fires("firing/async_block.rs", "async-block", 3);
    let msgs: Vec<&str> = r.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("blocking `.lock()`")));
    assert!(msgs.iter().any(|m| m.contains("Condvar::wait")));
    assert_suppressed("suppressed/async_block.rs", 3);
}

#[test]
fn async_block_exempts_the_engine_by_path_only() {
    // One text, two places: in a file of lane bodies both the parking loop
    // and the body's `.lock()` fire; under the engine's own path it is the
    // named exemption, with no inline suppression involved.
    let r = assert_fires("firing/async_block_engine.rs", "async-block", 2);
    assert!(r.findings[1].message.contains("`counting_lane` calls a blocking `.lock()`"));
    let root = fixtures_root().join("suppressed");
    let engine = root.join("crates/sched/src/engine.rs");
    let r = analyzer::lint_files(&root, &[engine]).unwrap();
    assert!(r.findings.is_empty(), "expected clean, got:\n{}", r.to_text());
    assert_eq!(r.suppressions_honored, 0);
}

#[test]
fn epoch_discipline_fires_and_suppresses() {
    let r = assert_fires("firing/epoch.rs", "epoch-discipline", 1);
    assert!(r.findings[0].message.contains("without the partition lock"));
    assert_eq!(r.findings[0].line, 6, "the locked twin must not fire");
    assert_suppressed("suppressed/epoch.rs", 1);
}

#[test]
fn trace_context_fires_and_suppresses() {
    let r = assert_fires("firing/trace_context.rs", "trace-context", 3);
    let msgs: Vec<&str> = r.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("opens 1 op span(s) but closes 0")));
    assert!(msgs.iter().any(|m| m.contains("early exit leaks the open span")));
    assert!(msgs.iter().any(|m| m.contains("mints a fresh trace id inside an open span")));
    assert_suppressed("suppressed/trace_context.rs", 3);
}

#[test]
fn malformed_suppressions_are_findings() {
    let r = assert_fires("firing/suppression.rs", "suppression", 3);
    assert_eq!(r.suppressions_honored, 0);
}

#[test]
fn every_rule_has_fixture_coverage() {
    // The registry and this test suite must not drift apart: each rule id
    // appears in the firing corpus's findings.
    let root = fixtures_root().join("firing");
    let files = analyzer::collect_rs_files(&root).unwrap();
    let r = analyzer::lint_files(&fixtures_root(), &files).unwrap();
    let seen: BTreeSet<&str> = r.findings.iter().map(|f| f.rule).collect();
    for rule in analyzer::rules::RULES {
        assert!(seen.contains(rule), "rule `{rule}` has no firing fixture");
    }
}

#[test]
fn json_report_is_byte_identical_across_runs() {
    let root = fixtures_root();
    let files = analyzer::collect_rs_files(&root).unwrap();
    let a = analyzer::lint_files(&root, &files).unwrap().to_json();
    let b = analyzer::lint_files(&root, &files).unwrap().to_json();
    assert_eq!(a, b, "lint JSON must be byte-deterministic");
    assert!(a.contains("\"tool\""), "report carries its schema header");
}

#[test]
fn repo_is_lint_clean() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let r = analyzer::lint_workspace(&repo_root).unwrap();
    assert!(
        r.findings.is_empty(),
        "the repo must lint clean (suppress with a reasoned `chime-lint: allow(...)` if intentional):\n{}",
        r.to_text()
    );
    assert!(r.files_scanned > 50, "workspace scan looks truncated");
}
