//! The paper's claims as data, judged over a figure's report points.
//!
//! A [`Claim`] names one flat metric, the points it compares and what the
//! paper says should hold. Each is expected to [`Expect::Pass`] or is a
//! documented deviation ([`Expect::ExpectedFail`], with the reason). A
//! verdict is *unexplained* when it differs from the expectation in either
//! direction: a `Pass` claim that fails, or an `ExpectedFail` that starts
//! passing (the deviation closed: flip the row, update EXPERIMENTS.md).

use obs::Json;

use crate::report::BenchPoint;

/// What a claim asserts about its metric over its points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Strictly descending over the points, as listed (who beats whom).
    Order,
    /// Never falling (`rising`) or never rising along a sweep's points.
    Monotone {
        /// Direction the paper reports.
        rising: bool,
    },
    /// `points[0] / points[1]` lies in the band.
    RatioBand(Band),
    /// `points[0]` lies in the band.
    ValueBand(Band),
}

/// The paper's number and the inclusive band ours must lie in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// What the paper reports.
    pub paper: f64,
    /// Lowest tolerated value.
    pub lo: f64,
    /// Highest tolerated value.
    pub hi: f64,
}

/// Whether the claim is expected to hold here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The paper's claim reproduces.
    Pass,
    /// A deviation EXPERIMENTS.md admits, with its reason.
    ExpectedFail(&'static str),
}

/// One claim of the paper over one figure's points.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Stable identifier, `<sub-figure>/<what>`.
    pub id: String,
    /// The paper's statement (and, where our band is not centred on the
    /// paper's value, why).
    pub paper: &'static str,
    /// The flat metric compared (`a/b`: the quotient of two metrics of
    /// the same point).
    pub metric: &'static str,
    /// The points compared, in the order the check reads them.
    pub points: Vec<String>,
    /// The assertion.
    pub check: Check,
    /// Expected outcome.
    pub expect: Expect,
}

impl Claim {
    /// Marks the claim a documented deviation.
    pub fn expected_fail(&mut self, reason: &'static str) {
        self.expect = Expect::ExpectedFail(reason);
    }
}

/// A judged claim.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The claim.
    pub claim: Claim,
    /// The metric at each of the claim's points.
    pub measured: Vec<f64>,
    /// Whether the check held.
    pub holds: bool,
}

impl Verdict {
    /// The verdict differs from the claim's expectation (in either direction).
    pub fn unexplained(&self) -> bool {
        self.holds != (self.claim.expect == Expect::Pass)
    }

    /// `pass`, `expected-fail`, or the two unexplained outcomes.
    pub fn outcome(&self) -> &'static str {
        match (self.claim.expect, self.holds) {
            (Expect::Pass, true) => "pass",
            (Expect::ExpectedFail(_), false) => "expected-fail",
            (Expect::Pass, false) => "FAIL",
            (Expect::ExpectedFail(_), true) => "UNEXPLAINED-PASS",
        }
    }

    /// One line for the run log.
    pub fn line(&self) -> String {
        let values: Vec<String> = self.measured.iter().map(|v| format!("{v:.3}")).collect();
        let shown = match self.claim.check {
            Check::Order => values.join(" > "),
            Check::Monotone { .. } => values.join(" → "),
            Check::RatioBand(b) => format!("{:.3} in [{}, {}]", self.measured[0] / self.measured[1], b.lo, b.hi),
            Check::ValueBand(b) => format!("{} in [{:.3}, {:.3}]", values[0], b.lo, b.hi),
        };
        format!("{:<17} {:<36} {} = {shown}", self.outcome(), self.claim.id, self.claim.metric)
    }

    /// The claims.json entry: id → paper's statement → measured → verdict.
    pub fn to_json(&self, figure: &str) -> Json {
        let c = &self.claim;
        let (kind, band) = match c.check {
            Check::Order => ("order", None),
            Check::Monotone { rising: true } => ("rising", None),
            Check::Monotone { rising: false } => ("falling", None),
            Check::RatioBand(b) => ("ratio", Some(b)),
            Check::ValueBand(b) => ("value", Some(b)),
        };
        let mut doc = vec![
            ("id", Json::from(c.id.as_str())),
            ("figure", Json::from(figure)),
            ("paper", Json::from(c.paper)),
            ("check", Json::from(kind)),
            ("metric", Json::from(c.metric)),
        ];
        if let Some(b) = band {
            doc.push(("paper_value", Json::from(b.paper)));
            doc.push(("band", Json::Arr(vec![Json::from(b.lo), Json::from(b.hi)])));
        }
        if let Check::RatioBand(_) = c.check {
            doc.push(("ratio", Json::from(self.measured[0] / self.measured[1])));
        }
        let measured = c.points.iter().cloned().zip(self.measured.iter().map(|&v| Json::from(v)));
        doc.push(("measured", Json::Obj(measured.collect())));
        doc.push(("verdict", Json::from(self.outcome())));
        if let Expect::ExpectedFail(reason) = c.expect {
            doc.push(("reason", Json::from(reason)));
        }
        Json::obj(doc)
    }
}

/// Judges `claims` over a figure's `points`. A claim naming a point (or a
/// metric) the figure did not produce is an error, never a skipped claim.
pub fn evaluate(claims: &[Claim], points: &[BenchPoint]) -> Result<Vec<Verdict>, String> {
    claims
        .iter()
        .map(|claim| {
            let read = |key: &String| {
                let point = points
                    .iter()
                    .find(|p| &p.name == key)
                    .ok_or_else(|| format!("claim {}: no point {key:?}", claim.id))?;
                let metric = |name: &str| {
                    point.metrics.get(name).copied().ok_or_else(|| {
                        format!("claim {}: point {key:?} has no metric {name}", claim.id)
                    })
                };
                // `a/b` names the quotient of two metrics of the same point.
                match claim.metric.split_once('/') {
                    Some((a, b)) => Ok(metric(a)? / metric(b)?),
                    None => metric(claim.metric),
                }
            };
            let m = claim.points.iter().map(read).collect::<Result<Vec<f64>, String>>()?;
            let pairwise = |ok: fn(f64, f64) -> bool| m.windows(2).all(|w| ok(w[0], w[1]));
            let arity = |n: usize| {
                assert_eq!(m.len(), n, "claim {}: {:?} reads {n} point(s)", claim.id, claim.check);
            };
            let holds = match claim.check {
                Check::Order => pairwise(|a, b| a > b),
                Check::Monotone { rising: true } => pairwise(|a, b| a <= b),
                Check::Monotone { rising: false } => pairwise(|a, b| a >= b),
                Check::RatioBand(b) => {
                    arity(2);
                    (b.lo..=b.hi).contains(&(m[0] / m[1]))
                }
                Check::ValueBand(b) => {
                    arity(1);
                    (b.lo..=b.hi).contains(&m[0])
                }
            };
            Ok(Verdict { claim: claim.clone(), measured: m, holds })
        })
        .collect()
}

/// The tracked `claims.json`: one line per claim, in table order.
pub fn document(verdicts: &[(&str, Verdict)]) -> String {
    let lines: Vec<String> = verdicts
        .iter()
        .map(|(figure, v)| v.to_json(figure).to_compact())
        .collect();
    format!("{{\"schema\":1,\"claims\":[\n{}\n]}}\n", lines.join(",\n"))
}
