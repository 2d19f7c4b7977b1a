//! Every table and figure of the evaluation as one table ([`FIGURES`]):
//! per figure a name, the published scale, its parts as data and the
//! paper's claims over the points those parts produce. One runner turns a
//! part into report points and printed rows; [`claims::evaluate`] judges
//! the claims over the finished report. The one row without claims,
//! `smoke`, is judged by its tracked flat metrics (`results/smoke.json`)
//! instead. The `figs` binary is a thin front end over [`run_figure`].

pub mod claims;
pub mod lineup;
mod studies;
mod table;

use std::collections::HashMap;

use obs::{Anomaly, TimeSeries};

use crate::driver::{deploy, run, run_deployed, BenchResult, BenchSetup};
use crate::report::Report;
pub use claims::{Claim, Verdict};
pub use lineup::*;
pub use table::FIGURES;

/// Dataset and run length of one figure run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Keys preloaded before each measured phase.
    pub preload: u64,
    /// Operations per measured point.
    pub ops: u64,
}

/// One row of the table.
pub struct Figure {
    /// Report name: the run writes `BENCH_<name>.json`.
    pub name: &'static str,
    /// What the figure shows.
    pub title: &'static str,
    /// The published scale (EXPERIMENTS.md's numbers are at this scale).
    pub scale: Scale,
    /// Extra flat-metric columns printed after the standard row.
    pub cols: &'static [&'static str],
    /// Adds the figure's parts and claims at a given scale.
    pub build: fn(Scale, &mut Spec),
}

impl Figure {
    /// The figure's parts and claims at `scale`.
    pub fn spec(&self, scale: Scale) -> Spec {
        let mut spec = Spec::default();
        (self.build)(scale, &mut spec);
        spec
    }
}

/// What a figure runs and what the paper says about the outcome.
#[derive(Default)]
pub struct Spec {
    /// Measured parts, in report order.
    pub parts: Vec<Part>,
    /// The paper's claims over the points the parts produce.
    pub claims: Vec<Claim>,
}

impl Spec {
    fn part(&mut self, key: impl Into<String>, subs: Vec<String>, work: Work) {
        self.parts.push(Part { key: key.into(), subs, work });
    }

    /// Adds a [`Work::Point`].
    pub fn point(&mut self, key: impl Into<String>, setup: BenchSetup) {
        self.part(key, Vec::new(), Work::Point(setup));
    }

    /// Adds a [`Work::Curve`]: one point per client count of `sweep`.
    pub fn curve(&mut self, key: impl Into<String>, setup: BenchSetup, sweep: &'static [usize]) {
        self.part(key, sweep.iter().map(|c| c.to_string()).collect(), Work::Curve(setup, sweep));
    }

    /// Adds a single-point [`Work::Study`].
    pub fn study(&mut self, key: impl Into<String>, run: impl Fn() -> Custom + 'static) {
        self.part(key, Vec::new(), Work::Study(Box::new(move || vec![run()])));
    }

    /// Adds a [`Work::Study`] producing one point per entry of `subs`.
    pub fn studies(&mut self, key: &str, subs: &[&str], run: impl Fn() -> Vec<Custom> + 'static) {
        self.part(key, subs.iter().map(|s| s.to_string()).collect(), Work::Study(Box::new(run)));
    }

    /// Adds a claim expected to pass ([`Claim::expected_fail`] marks a
    /// documented deviation).
    pub fn claim(
        &mut self,
        id: impl Into<String>,
        paper: &'static str,
        metric: &'static str,
        points: &[impl AsRef<str>],
        check: claims::Check,
    ) -> &mut Claim {
        let points = points.iter().map(|p| p.as_ref().to_string()).collect();
        self.claims.push(Claim { id: id.into(), paper, metric, points, check, expect: claims::Expect::Pass });
        self.claims.last_mut().expect("just pushed")
    }
}

/// Metrics of a point that is not a [`BenchSetup`] run.
pub struct Custom {
    /// `(metric, value)` pairs.
    pub metrics: Vec<(String, f64)>,
    /// The run's windowed timeline and anomalies, where it has one.
    pub timeline: Option<(TimeSeries, Vec<Anomaly>)>,
}

impl Custom {
    /// A point carrying only metrics.
    pub fn of(metrics: &[(&str, f64)]) -> Self {
        Custom {
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            timeline: None,
        }
    }
}

/// One measured part of a figure: its point keys and how it produces them.
pub struct Part {
    /// The point key; with `subs`, the prefix of the points `key/<sub>`.
    pub key: String,
    /// Sub-point names of a multi-point part, in report order.
    pub subs: Vec<String>,
    /// The measurement.
    pub work: Work,
}

/// How a [`Part`] produces its points.
pub enum Work {
    /// One deployment, one measured phase: the point `key`.
    Point(BenchSetup),
    /// One deployment measured at each client count (ascending; the
    /// setup's own `clients` is ignored): points `key/<clients>`.
    Curve(BenchSetup, &'static [usize]),
    /// Anything that is not a [`BenchSetup`] run (raw READ streams, layout
    /// arithmetic, load-factor trials, single-client RTT counts, the serve
    /// simulator): one [`Custom`] per point.
    Study(Box<dyn Fn() -> Vec<Custom>>),
}

impl Part {
    /// The point keys the part produces, in report order.
    pub fn point_keys(&self) -> Vec<String> {
        if self.subs.is_empty() {
            return vec![self.key.clone()];
        }
        self.subs.iter().map(|sub| format!("{}/{sub}", self.key)).collect()
    }
}

/// Looks a figure up by name.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Runs the parts of `fig` whose key starts with `only` (all of them when
/// `None`) at `scale`: prints one row per point and returns the report.
pub fn run_figure(fig: &Figure, scale: Scale, only: Option<&str>) -> Report {
    println!("# {}: {} (preload {}, ops {})", fig.name, fig.title, scale.preload, scale.ops);
    let mut rep = Report::new(fig.name);
    let spec = fig.spec(scale);
    let selected = |p: &&Part| only.is_none_or(|o| p.key.starts_with(o));
    for part in spec.parts.iter().filter(selected) {
        let keys = part.point_keys();
        match &part.work {
            Work::Point(setup) => add_run(&mut rep, fig, &keys[0], &run(setup)),
            Work::Curve(setup, sweep) => {
                let mut step = BenchSetup { clients: sweep[sweep.len() - 1], ..setup.clone() };
                let mut dep = deploy(&step);
                for (key, &clients) in keys.iter().zip(*sweep) {
                    step.clients = clients;
                    // Every client gets at least one op.
                    step.ops = setup.ops.max(clients as u64);
                    add_run(&mut rep, fig, key, &run_deployed(&step, &mut dep));
                }
            }
            Work::Study(run) => {
                let out = run();
                assert_eq!(out.len(), keys.len(), "{}: study {} point count", fig.name, part.key);
                for (key, c) in keys.iter().zip(out) {
                    let shown: Vec<String> = c
                        .metrics
                        .iter()
                        // Dotted names are per-phase attribution detail.
                        .filter(|(k, _)| !k.contains('.'))
                        .map(|(k, v)| format!("{k} {v:.3}"))
                        .collect();
                    println!("{key:<34} {}", shown.join("  "));
                    let refs: Vec<(&str, f64)> = c.metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                    rep.add_custom(key, &refs);
                    if let Some((timeline, anomalies)) = &c.timeline {
                        rep.attach_timeline(key, timeline, anomalies);
                    }
                }
            }
        }
    }
    rep
}

/// Columns of a measured row, before the figure's own.
const ROW: [&str; 7] = ["mops", "p50_us", "p99_us", "bytes_per_op", "rtts_per_op", "read_amp", "cache_mb"];

/// [`Report::add`], then the standard row plus the figure's extra columns.
fn add_run(rep: &mut Report, fig: &Figure, key: &str, r: &BenchResult) {
    rep.add(key, r);
    let flat = &rep.points().last().expect("just added").metrics;
    let cols: Vec<String> = ROW.iter().chain(fig.cols).map(|c| format!("{c} {:.3}", flat[*c])).collect();
    println!("{key:<34} {}  [{:?}]", cols.join("  "), r.bound);
}

/// Declared command-line flags (tiny, dependency-free). An undeclared
/// flag, a flag without its value or a value that does not parse prints
/// the usage line to stderr and exits 2: a typo must not silently run the
/// defaults.
pub struct Args {
    usage: &'static str,
    /// Flag name → value (empty for a switch).
    flags: HashMap<String, String>,
    /// Positional arguments, in order.
    pub names: Vec<String>,
}

impl Args {
    /// Parses the process arguments against the flags that take a value
    /// (`valued`) and the bare `switches`.
    pub fn parse(usage: &'static str, valued: &[&str], switches: &[&str]) -> Self {
        let mut args = Args { usage, flags: HashMap::new(), names: Vec::new() };
        let mut argv = std::env::args().skip(1);
        while let Some(arg) = argv.next() {
            match arg.strip_prefix("--") {
                None => args.names.push(arg),
                Some(f) if switches.contains(&f) => drop(args.flags.insert(f.to_string(), String::new())),
                Some(f) if valued.contains(&f) => match argv.next() {
                    Some(v) => drop(args.flags.insert(f.to_string(), v)),
                    None => args.die(&format!("--{f} needs a value")),
                },
                Some(f) => args.die(&format!("unknown flag --{f}")),
            }
        }
        args
    }

    /// The value of flag `name` parsed as `T`, if it was given.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.flags.get(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.die(&format!("--{name}: cannot parse {v:?}")))
        })
    }

    /// Whether switch `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Prints `msg` and the usage line to stderr and exits 2.
    pub fn die(&self, msg: &str) -> ! {
        eprintln!("error: {msg}\nusage: {}", self.usage);
        std::process::exit(2)
    }
}
