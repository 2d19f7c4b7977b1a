//! The `chime-model` check suite: which models run, what each must
//! prove, and the deterministic text/JSON rendering.
//!
//! A suite run *passes* only when every expectation is met — the sound
//! models must verify all their properties **and** the probe models must
//! be refuted on the property their seeded bug breaks. A probe that
//! fails to find its violation means the checker has gone blind, and the
//! run fails exactly as hard as a sound-model violation.

use obs::json::Json;

use super::lease::{LeaseModel, WordLayout};
use super::migrate::MigrateModel;
use super::{explore, Exploration, Model, Violation};

/// What one model run must show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// All properties hold.
    Verify,
    /// The named property is violated (seeded-bug probe).
    Refute(&'static str),
}

/// One explored model plus its verdict.
pub struct ModelRun {
    /// Model name.
    pub name: &'static str,
    /// Mode tag (`sound` / `probe:*`).
    pub mode: &'static str,
    /// Actor count.
    pub actors: usize,
    /// Declared properties.
    pub properties: &'static [&'static str],
    /// The expectation for this run.
    pub expect: Expect,
    /// Exploration statistics and first violation.
    pub result: Exploration,
}

impl ModelRun {
    /// Whether the run met its expectation.
    pub fn pass(&self) -> bool {
        match (self.expect, &self.result.violation) {
            (Expect::Verify, None) => true,
            (Expect::Refute(p), Some(v)) => v.property == p,
            _ => false,
        }
    }
}

/// The whole suite's outcome.
pub struct SuiteResult {
    /// All model runs, in suite order.
    pub runs: Vec<ModelRun>,
    /// Where the lock-word layout came from (report provenance).
    pub layout_origin: String,
}

impl SuiteResult {
    /// Whether every expectation was met.
    pub fn pass(&self) -> bool {
        self.runs.iter().all(|r| r.pass())
    }

    /// Renders the human-readable summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in &self.runs {
            let verdict = match (&r.result.violation, r.pass()) {
                (None, true) => format!("verified {}", r.properties.join(", ")),
                (Some(v), true) => format!(
                    "refuted {} as expected ({})",
                    v.property,
                    v.trace.join(" → ")
                ),
                (None, false) => {
                    let Expect::Refute(p) = r.expect else {
                        unreachable!("verify+no-violation is a pass")
                    };
                    format!("FAILED: probe did not refute {p}")
                }
                (Some(v), false) => format!("FAILED: {} violated: {}", v.property, v.message),
            };
            out.push_str(&format!(
                "chime-model: {} [{}] {} states, {} transitions: {}\n",
                r.name, r.mode, r.result.states, r.result.transitions, verdict
            ));
        }
        let met = self.runs.iter().filter(|r| r.pass()).count();
        out.push_str(&format!(
            "chime-model: {} ({met}/{} expectations met, layout: {})\n",
            if self.pass() { "PASS" } else { "FAIL" },
            self.runs.len(),
            self.layout_origin
        ));
        out
    }

    /// Renders the machine-readable report (byte-identical across runs).
    pub fn to_json(&self) -> String {
        let runs: Vec<Json> = self
            .runs
            .iter()
            .map(|r| {
                let violated = r.result.violation.as_ref().map(|v| v.property);
                let props: Vec<Json> = r
                    .properties
                    .iter()
                    .map(|&p| {
                        Json::obj(vec![
                            ("name", Json::from(p)),
                            ("holds", Json::Bool(violated != Some(p))),
                        ])
                    })
                    .collect();
                let violation = match &r.result.violation {
                    None => Json::Null,
                    Some(Violation {
                        property,
                        message,
                        trace,
                    }) => Json::obj(vec![
                        ("property", Json::from(*property)),
                        ("message", Json::from(message.as_str())),
                        (
                            "trace",
                            Json::Arr(trace.iter().map(|t| Json::from(t.as_str())).collect()),
                        ),
                    ]),
                };
                Json::obj(vec![
                    ("name", Json::from(r.name)),
                    ("mode", Json::from(r.mode)),
                    ("actors", Json::from(r.actors as u64)),
                    (
                        "expectation",
                        Json::Str(match r.expect {
                            Expect::Verify => "verify".to_string(),
                            Expect::Refute(p) => format!("refute:{p}"),
                        }),
                    ),
                    ("pass", Json::Bool(r.pass())),
                    ("states", Json::from(r.result.states as u64)),
                    ("transitions", Json::from(r.result.transitions as u64)),
                    ("properties", Json::Arr(props)),
                    ("violation", violation),
                ])
            })
            .collect();
        Json::obj(vec![
            ("tool", Json::from("chime-model")),
            ("schema", Json::from(1u64)),
            ("layout", Json::from(self.layout_origin.as_str())),
            ("pass", Json::Bool(self.pass())),
            ("models", Json::Arr(runs)),
        ])
        .to_pretty()
    }
}

fn run_one(m: &dyn Model, expect: Expect) -> ModelRun {
    ModelRun {
        name: m.name(),
        mode: m.mode(),
        actors: m.actors(),
        properties: m.properties(),
        expect,
        result: explore(m),
    }
}

/// Runs the full suite against the given lock-word layout.
pub fn run(layout: WordLayout, layout_origin: &str) -> SuiteResult {
    let lease = |zombie| LeaseModel {
        layout,
        clients: 3,
        zombie,
    };
    SuiteResult {
        runs: vec![
            run_one(&lease(false), Expect::Verify),
            run_one(&lease(true), Expect::Refute("lease-safety")),
            run_one(&MigrateModel { publish_flip: false }, Expect::Verify),
            run_one(
                &MigrateModel { publish_flip: true },
                Expect::Refute("routing-integrity"),
            ),
        ],
        layout_origin: layout_origin.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_passes_on_the_documented_layout() {
        let s = run(WordLayout::documented(), "documented");
        assert!(s.pass(), "{}", s.to_text());
        assert_eq!(s.runs.len(), 4);
        // Two sound verifications, two expected refutations.
        assert_eq!(s.runs.iter().filter(|r| r.result.violation.is_some()).count(), 2);
    }

    #[test]
    fn json_is_byte_identical_across_runs() {
        let a = run(WordLayout::documented(), "documented").to_json();
        let b = run(WordLayout::documented(), "documented").to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"tool\": \"chime-model\""));
        assert!(a.contains("\"pass\": true"));
    }
}
