//! End-to-end tests for `chime-model`: the suite must prove the sound
//! protocols and refute the seeded probes, byte-identically, against
//! both the documented layout and the layout `chime::lockword` ships.

use analyzer::model::lease::WordLayout;
use analyzer::model::suite;

#[test]
fn suite_passes_on_the_documented_layout() {
    let r = suite::run(WordLayout::documented(), "documented-default");
    assert!(r.pass(), "suite must pass:\n{}", r.to_text());
    assert_eq!(r.runs.len(), 4, "two models x sound+probe");
}

#[test]
fn suite_passes_on_the_repo_lockword() {
    // The shipping layout must satisfy the same properties as the
    // documented one — this is the actual gate `make model-check` runs.
    let r = suite::run(WordLayout::shipping(), "crates/core/src/lockword.rs");
    assert!(r.pass(), "shipping layout must verify:\n{}", r.to_text());
    assert_eq!(r.runs.len(), 4, "two models x sound+probe");
}

#[test]
fn zombie_release_probe_is_refuted_with_a_witness() {
    let r = suite::run(WordLayout::shipping(), "crates/core/src/lockword.rs");
    let probe = r
        .runs
        .iter()
        .find(|m| m.mode.contains("zombie-release"))
        .expect("lease probe present");
    let v = probe.result.violation.as_ref().expect("probe must refute");
    assert_eq!(v.property, "lease-safety");
    assert!(
        v.trace.iter().any(|s| s.contains("zombie-release")),
        "witness must contain the stale-owner write: {:?}",
        v.trace
    );
}

#[test]
fn each_model_explores_the_recorded_state_space() {
    // The full pass is the one that decides the verdict; its counts are
    // the ones `results/model.json` records, so a model or explorer edit
    // that moves them shows here before `make model-check` diffs the file.
    let r = suite::run(WordLayout::shipping(), "crates/core/src/lockword.rs");
    let counts: Vec<_> = r
        .runs
        .iter()
        .map(|m| (m.name, m.mode, m.result.states, m.result.transitions))
        .collect();
    assert_eq!(
        counts,
        [
            ("lock-lease", "sound", 31, 48),
            ("lock-lease", "probe:zombie-release", 127, 174),
            ("part-migrate", "sound", 29, 49),
            ("part-migrate", "probe:publish-flip", 41, 69),
        ]
    );
}

#[test]
fn the_binary_writes_the_report_of_the_shipping_layout() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("model.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_chime-model"))
        .args(["--json", path.to_str().unwrap(), "--quiet"])
        .output()
        .expect("chime-model runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(out.stdout.is_empty(), "--quiet prints nothing on a pass");
    let want = suite::run(WordLayout::shipping(), "crates/core/src/lockword.rs").to_json();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
}

#[test]
fn the_binary_rejects_unknown_arguments() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_chime-model"))
        .arg("--layout")
        .output()
        .expect("chime-model runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument `--layout`"));
}

#[test]
fn suite_json_and_text_are_byte_identical_across_runs() {
    let a = suite::run(WordLayout::shipping(), "crates/core/src/lockword.rs");
    let b = suite::run(WordLayout::shipping(), "crates/core/src/lockword.rs");
    assert_eq!(a.to_json(), b.to_json(), "model JSON must be byte-deterministic");
    assert_eq!(a.to_text(), b.to_text());
    assert!(a.to_json().contains("\"tool\""), "report carries its schema header");
}
