//! The figure table and its claims engine.
//!
//! * each claim kind passes on synthetic points and fails once a point is
//!   perturbed (the `perf_gate.rs` pattern); an `ExpectedFail` that starts
//!   passing is as unexplained as a `Pass` that fails; a claim naming a
//!   point the figure did not produce is an error, not a skipped claim;
//! * a figure that builds one key twice panics naming the figure and key;
//! * the cheap figures run end to end with every claim explained;
//! * `figs --list` prints every figure's point keys, and they are unique;
//! * `figs` and `perf_smoke` reject unknown flags and unparsable values
//!   with exit code 2 instead of silently running the defaults, and `figs`
//!   exits 1 on an unexplained verdict.

use std::collections::BTreeSet;
use std::process::Command;

use bench::figs::claims::{evaluate, Band, Check, Verdict};
use bench::figs::{figure, run_figure, Custom, Figure, Scale, Spec, FIGURES};
use obs::BenchPoint;

const RISING: Check = Check::Monotone { rising: true };
const FALLING: Check = Check::Monotone { rising: false };

fn band(paper: f64, lo: f64, hi: f64) -> Band {
    Band { paper, lo, hi }
}

/// Four points whose `mops` is 40, 30, 20, 10.
fn synthetic() -> Vec<BenchPoint> {
    [("a", 40.0), ("b", 30.0), ("c", 20.0), ("d", 10.0)]
        .map(|(name, mops)| BenchPoint::new(name, &[("mops", mops), ("bytes", 2.0 * mops)]))
        .to_vec()
}

/// One claim of each kind, all holding on [`synthetic`].
fn one_of_each() -> Spec {
    let mut t = Spec::default();
    t.claim("order", "a beats b beats c", "mops", &["a", "b", "c"], Check::Order);
    t.claim("falling", "falls along the sweep", "mops", &["a", "b", "c", "d"], FALLING);
    t.claim("rising", "rises along the sweep", "mops", &["d", "c", "b", "a"], RISING);
    t.claim("ratio", "a is 4x d", "mops", &["a", "d"], Check::RatioBand(band(4.0, 3.5, 4.5)));
    t.claim("value", "c is 20", "mops", &["c"], Check::ValueBand(band(20.0, 19.0, 21.0)));
    t.claim("quotient", "2 bytes per op", "bytes/mops", &["b"], Check::ValueBand(band(2.0, 2.0, 2.0)));
    t
}

fn judge(spec: &Spec, points: &[BenchPoint]) -> Vec<Verdict> {
    evaluate(&spec.claims, points).expect("every claim names produced points")
}

#[test]
fn every_claim_kind_passes_and_a_perturbed_point_fails_it() {
    let spec = one_of_each();
    let verdicts = judge(&spec, &synthetic());
    for v in &verdicts {
        assert!(v.holds && !v.unexplained(), "{} must pass: {}", v.claim.id, v.line());
        assert_eq!(v.outcome(), "pass");
    }
    // Lift `c` above `b`: the order, both sweeps and c's own band break;
    // the a/d ratio and b's quotient do not read `c`.
    let mut perturbed = synthetic();
    *perturbed[2].metrics.get_mut("mops").unwrap() = 35.0;
    let failed: Vec<String> = judge(&spec, &perturbed)
        .iter()
        .filter(|v| v.unexplained())
        .map(|v| {
            assert_eq!(v.outcome(), "FAIL");
            v.claim.id.clone()
        })
        .collect();
    assert_eq!(failed, ["order", "falling", "rising", "value"]);
    // Halve `d`: only the ratio band notices.
    let mut perturbed = synthetic();
    *perturbed[3].metrics.get_mut("mops").unwrap() = 5.0;
    let failed: Vec<String> = judge(&spec, &perturbed)
        .iter()
        .filter(|v| v.unexplained())
        .map(|v| v.claim.id.clone())
        .collect();
    assert_eq!(failed, ["ratio"]);
}

#[test]
fn an_expected_fail_that_starts_passing_is_an_unexplained_flip() {
    let mut t = Spec::default();
    t.claim("gap", "d beats a", "mops", &["d", "a"], Check::Order)
        .expected_fail("not implemented yet");
    let v = &judge(&t, &synthetic())[0];
    assert!(!v.holds && !v.unexplained(), "the documented deviation is explained");
    assert_eq!(v.outcome(), "expected-fail");
    assert!(v.to_json("toy").to_compact().contains("\"reason\":\"not implemented yet\""));
    // The gap closes: d overtakes a. The row must be flipped by hand.
    let mut closed = synthetic();
    *closed[3].metrics.get_mut("mops").unwrap() = 50.0;
    let v = &judge(&t, &closed)[0];
    assert!(v.holds && v.unexplained(), "a silent flip must fail the run");
    assert_eq!(v.outcome(), "UNEXPLAINED-PASS");
}

#[test]
fn a_claim_over_a_point_the_figure_did_not_produce_is_an_error() {
    let mut t = one_of_each();
    t.claim("typo", "names a missing point", "mops", &["a", "bb"], Check::Order);
    let err = evaluate(&t.claims, &synthetic()).unwrap_err();
    assert!(err.contains("typo") && err.contains("\"bb\""), "{err}");
    let mut t = Spec::default();
    t.claim("metric", "names a missing metric", "kops", &["a"], RISING);
    let err = evaluate(&t.claims, &synthetic()).unwrap_err();
    assert!(err.contains("kops"), "{err}");
}

#[test]
#[should_panic(expected = "report toy: duplicate point key \"twice\"")]
fn a_figure_that_builds_one_key_twice_panics_naming_figure_and_key() {
    let toy = Figure {
        name: "toy",
        title: "two rows, one key",
        scale: Scale { preload: 0, ops: 0 },
        cols: &[],
        build: |_, t| {
            t.study("twice", || Custom::of(&[("x", 1.0)]));
            t.study("twice", || Custom::of(&[("x", 2.0)]));
        },
    };
    run_figure(&toy, toy.scale, None);
}

#[test]
fn cheap_figures_run_end_to_end_with_every_claim_explained() {
    // (figure, preload override, sub-figure): fig19's 19b and Table 1 at
    // 20 k keys keep this inside a few seconds of a debug build.
    for (name, preload, only) in [
        ("fig16", None, None),
        ("fig4", None, None),
        ("fig19", None, Some("19b")),
        ("table1", Some(20_000), None),
    ] {
        let fig = figure(name).expect("figure in the table");
        let scale = Scale { preload: preload.unwrap_or(fig.scale.preload), ..fig.scale };
        let rep = run_figure(fig, scale, only);
        let mut claims = fig.spec(scale).claims;
        claims.retain(|c| only.is_none_or(|o| c.id.starts_with(o)));
        assert!(!claims.is_empty(), "{name} carries claims");
        for v in evaluate(&claims, rep.points()).expect("claims name produced points") {
            assert!(!v.unexplained(), "{name}: {}", v.line());
        }
    }
}

fn figs(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figs")).args(args).output().expect("run figs")
}

#[test]
fn list_prints_every_point_key_and_keys_are_unique_per_figure() {
    let out = figs(&["--list"]);
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).unwrap();
    let mut claims = 0;
    for fig in FIGURES {
        let spec = fig.spec(fig.scale);
        let keys: Vec<String> = spec.parts.iter().flat_map(|p| p.point_keys()).collect();
        let unique: BTreeSet<&String> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "{}: duplicate point keys", fig.name);
        assert!(!keys.is_empty() && !spec.claims.is_empty(), "{}: no points or no claims", fig.name);
        assert!(listed.contains(&format!("\n{}: ", fig.name)) || listed.starts_with(fig.name));
        for key in &keys {
            assert!(listed.contains(&format!("  {key}\n")), "{}: --list misses {key}", fig.name);
        }
        // Every claim reads points its own figure produces (checked without
        // running the figure; `evaluate` rejects the rest at run time).
        for claim in &spec.claims {
            for point in &claim.points {
                assert!(keys.contains(point), "{}: claim {} names no point {point:?}", fig.name, claim.id);
            }
        }
        claims += spec.claims.len();
    }
    assert_eq!(FIGURES.len(), 15);
    assert!(claims >= 35, "only {claims} claims in the table");
}

#[test]
fn unknown_flags_and_unparsable_values_exit_2_with_usage() {
    let perf_smoke = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_perf_smoke")).args(args).output().expect("run perf_smoke")
    };
    for (what, out) in [
        ("figs --ops 40k", figs(&["fig16", "--ops", "40k"])),
        ("figs --prelaod", figs(&["fig16", "--prelaod", "100000"])),
        ("figs --ops without a value", figs(&["fig16", "--ops"])),
        ("figs with an unknown figure", figs(&["fig99"])),
        ("figs with nothing to run", figs(&[])),
        ("perf_smoke --tolerance ten", perf_smoke(&["--tolerance", "ten"])),
        ("perf_smoke --basline", perf_smoke(&["--basline", "x.json"])),
    ] {
        assert_eq!(out.status.code(), Some(2), "{what} must exit 2");
        assert!(out.stdout.is_empty(), "{what} must not start a run");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("error: ") && err.contains("usage: "), "{what}: {err}");
    }
}

#[test]
fn figs_exits_1_on_an_unexplained_verdict() {
    // 300 keys fit under a single internal level (h = 1), so Table 1's
    // worst-case bands (h = 2) fail: a `Pass` claim that fails fails the run.
    let dir = std::env::temp_dir().join(format!("figs-test-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_figs"))
        .args(["table1", "--preload", "300"])
        .env("BENCH_OUT_DIR", &dir)
        .output()
        .expect("run figs");
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(text.contains("FAIL"), "{text}");
    assert!(!dir.join("claims.json").exists(), "claims.json is only written by --all at the published scale");
    std::fs::remove_dir_all(&dir).ok();
}
