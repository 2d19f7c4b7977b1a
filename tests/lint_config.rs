//! The lint wall's configuration: `make lint` runs clippy with `-D
//! warnings` over every target, and the protocol rules it enforces live in
//! the root `clippy.toml` and the workspace `[lints]` table. `cargo test`
//! does not run clippy, so these tests pin the configuration itself: a
//! dropped rule, a crate that stops inheriting the lints, or a softened
//! gate fails here.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// `(path, reason)` of every `disallowed-methods` entry in `clippy.toml`.
fn disallowed_methods() -> Vec<(String, String)> {
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("{key} = \""))? + key.len() + 4;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    read("clippy.toml")
        .lines()
        .filter_map(|l| Some((field(l, "path")?, field(l, "reason").unwrap_or_default())))
        .collect()
}

fn disallowed_paths() -> Vec<String> {
    disallowed_methods().into_iter().map(|(p, _)| p).collect()
}

#[test]
fn the_wall_clock_and_sleep_are_disallowed() {
    let paths = disallowed_paths();
    for p in ["std::time::Instant::now", "std::time::SystemTime::now", "std::thread::sleep"] {
        assert!(paths.iter().any(|q| q == p), "{p} missing from clippy.toml");
    }
}

#[test]
fn every_order_dependent_hash_method_is_disallowed() {
    let paths = disallowed_paths();
    let map = ["iter", "iter_mut", "keys", "values", "values_mut", "drain", "retain"];
    let set = ["iter", "drain", "retain"];
    let want = map.iter().map(|m| format!("std::collections::HashMap::{m}"))
        .chain(set.iter().map(|m| format!("std::collections::HashSet::{m}")));
    for p in want {
        assert!(paths.contains(&p), "{p} missing from clippy.toml");
    }
}

#[test]
fn the_raw_masked_cas_verbs_are_routed_through_the_lockword() {
    let methods = disallowed_methods();
    for verb in ["dmem::Endpoint::masked_cas", "dmem::Endpoint::masked_cas_read"] {
        let (_, reason) = methods.iter().find(|(p, _)| p == verb).unwrap_or_else(|| panic!("{verb} missing"));
        assert!(reason.contains("chime::lockword"), "{verb}: {reason}");
    }
}

#[test]
fn every_disallowed_method_gives_a_reason() {
    let methods = disallowed_methods();
    assert!(methods.len() >= 15, "clippy.toml lost entries: {methods:?}");
    for (p, reason) in methods {
        assert!(!reason.trim().is_empty(), "{p} has no reason");
    }
}

#[test]
fn the_workspace_lints_hash_iteration_and_undocumented_unsafe() {
    let manifest = read("Cargo.toml");
    let table = manifest.split("[workspace.lints.clippy]").nth(1).expect("workspace clippy lints");
    let table = table.split("\n[").next().unwrap();
    for lint in ["iter_over_hash_type", "undocumented_unsafe_blocks"] {
        assert!(
            table.lines().any(|l| l.starts_with(lint) && (l.contains("\"warn\"") || l.contains("\"deny\""))),
            "{lint} is not enabled:\n{table}"
        );
    }
}

#[test]
fn every_workspace_crate_inherits_the_workspace_lints() {
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path().join("Cargo.toml"))
        .filter(|p| p.exists())
        .collect();
    crates.sort();
    assert!(crates.len() >= 10, "{crates:?}");
    for manifest in crates {
        let text = std::fs::read_to_string(&manifest).unwrap();
        let lints = text.split("[lints]").nth(1).unwrap_or_else(|| panic!("{}: no [lints]", manifest.display()));
        assert!(
            lints.trim_start().starts_with("workspace = true"),
            "{} does not inherit the workspace lints",
            manifest.display()
        );
    }
}

#[test]
fn the_lint_gate_denies_warnings_on_every_target() {
    let makefile = read("Makefile");
    let verify = makefile.lines().find(|l| l.starts_with("verify:")).expect("verify target");
    assert!(verify.split_whitespace().any(|t| t == "lint"), "{verify}");
    let lint = makefile.split("\nlint:\n").nth(1).expect("lint target");
    let recipe = lint.lines().next().unwrap();
    assert!(recipe.contains("clippy --all-targets -- -D warnings"), "{recipe}");
}
