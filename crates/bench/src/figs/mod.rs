//! Every table and figure of the evaluation as one table ([`FIGURES`]):
//! per figure a name, the published scale, its parts as data and the
//! paper's claims over the points those parts produce. One runner turns a
//! part into report points and printed rows; [`claims::evaluate`] judges
//! the claims over the finished report. The one row without claims,
//! `smoke`, is judged by its tracked flat metrics (`results/smoke.json`)
//! instead. The `figs` binary is a thin front end over [`run_figure`]:
//! `figs --list` prints the table, `figs fig18 --only 18a` runs one
//! sub-figure, and the sub-figure label is the prefix of its point keys in
//! `BENCH_<fig>.json`. Defaults: span 64, H = 8, 8 B keys/values, hotspot
//! buffer 30 MB and cache 100 MB (both scaled), Zipfian θ = 0.99.
//!
//! | Experiment | Paper content | Workload & parameters | Modules |
//! |---|---|---|---|
//! | Fig 1 / Fig 3a | Cache consumption vs amplification factor per index | 60 M (scaled) loaded items; spans 8–512 for Sherman/ROLEX | all index crates |
//! | Fig 3b | Throughput vs clients, limited bandwidth (1 MN, 1000 MB cache) | YCSB C | all indexes, [`dmem::net`] |
//! | Fig 3c | Throughput vs clients, limited cache (10 MN, 100 MB cache) | YCSB C | all indexes |
//! | Fig 3d | Max load factor vs amplification for hashing schemes | 128-entry tables, associativity/hopscotch/RACE/FaRM | [`hashstudy`] |
//! | Fig 4a / 4b / 4c | Vacancy-bitmap / leaf-metadata access overhead; neighborhood read cost | READ streams: hop range vs +bitmap vs whole node; neighborhood vs +meta vs whole node; neighborhood 1–64 | `dmem` microbench |
//! | Table 1 | RTTs per operation (best/worst) | single-client op traces, warm & cold cache | `chime` + stats |
//! | Fig 12 | Throughput–latency, YCSB A/B/C/D/E/LOAD × {CHIME, Sherman, ROLEX, SMART, SMART-Opt} | client sweep, 100 MB cache | all index crates |
//! | Fig 13 | Same with variable-length KV (indirect) | 320 clients; CHIME-Indirect, Marlin (≈ Sherman-Indirect), ROLEX-Indirect, SMART-RCU | indirect modes |
//! | Fig 14 | Cache consumption vs loaded items (40–120 M, scaled) | load only | cache accounting in each index |
//! | Fig 15a | Factor analysis from Sherman: +hopscotch leaf, +vacancy piggyback, +meta replication, +spec read | YCSB C/LOAD/A, 320 clients; throughput + P50/P99 | `chime` feature toggles |
//! | Fig 15b | Factor analysis from ROLEX → CHIME-Learned | same | `rolex::learned_hop` |
//! | Fig 16 | Sibling validation metadata size vs key size (8–256 B) | analytic + measured node layouts | `chime::layout` |
//! | Fig 17 | Speculative read: throughput vs clients, SR on/off | YCSB C, >500 clients | `hotspot_bytes` (0 = SR off) |
//! | Fig 18a–f | Throughput vs Zipfian skew (0.5–0.99, 50 % search + 50 % update); cache size (0–1600 MB scaled); inline value size (8–512 B); indirect value size; span (8–512); neighborhood (2–16) | YCSB C unless noted | `ycsb`, all indexes, indirect modes, `chime` |
//! | Fig 19a / 19b | Span vs max load factor & cache consumption; neighborhood vs max load factor | load to capacity | `chime` |
//! | Fig 19c | Hotspot buffer size vs throughput & hit/correct ratios | YCSB C, 0–50 MB | `chime` |
//!
//! **The smoke gate.** The `smoke` row is a fixed-seed matrix with no
//! claims: CHIME and Sherman × YCSB C/A/E × 16/64 clients, CHIME at K = 4, a
//! point whose node cache and hotspot buffer evict, a LOAD point whose
//! inserts split leaves, two 4-MN scale-out cuts and the serve knee. Run
//! whole at its published scale (`figs --all` or `figs smoke`, ≈ 3 s), it
//! writes every point's full flat metric map to `results/smoke.json`, one
//! compact line per point, metrics sorted. Every value is exact per seed and
//! floats render in their shortest round-trip form, so `make figs`'s
//! `git diff --exit-code` fails on any moved bit; no tolerance absorbs a
//! regression. A deliberate change commits the regenerated file, and
//! `make explain` attributes the move ([`crate::explain`]).

pub mod claims;
pub mod hashstudy;
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
