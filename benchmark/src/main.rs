//! The benchmark command. `benchmark/run.sh` builds this binary and passes
//! its arguments through:
//!
//! ```text
//! --workload W --seed N --seconds S --trace 0|1   one pass of one workload; the last
//!                                                 stdout line is the result object
//! [--seed N] [--seconds S] [--trace 0|1]          the suite: every workload, each in a
//!                                                 child process; writes out/{e2e,layers}.json
//! --compare A.json B.json                         apply the bounds to two e2e.json files
//! ```
//!
//! Without `--trace` both passes run. `--out DIR` (default `benchmark/out`)
//! and `--spec FILE` (default `BENCHMARK.json`) are relative to the working
//! directory, which `run.sh` makes the repository root.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use chime_benchmark::alloc::CountingAlloc;
use chime_benchmark::compare;
use chime_benchmark::sim::{self, Traced};
use chime_benchmark::spec::Spec;
use chime_benchmark::workloads::{self, Kind};
use chime_benchmark::{tcp, Outcome};
use obs::json::{parse, Json};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: PathBuf,
    spec: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        out: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--spec" => args.spec = PathBuf::from(value()?),
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The passes to run (`false` = timed, `true` = traced): the one `--trace`
/// names, or both.
fn passes(args: &Args) -> Vec<bool> {
    args.trace.map_or(vec![false, true], |t| vec![t])
}

fn pass_name(traced: bool) -> &'static str {
    if traced {
        "layers"
    } else {
        "e2e"
    }
}

/// The result object of one pass: the four keys of the contract, with
/// quartiles and sample counts beside the host-clock medians.
fn result_doc(spec: &Spec, traced: bool, o: &Outcome, with_spread: bool) -> Json {
    let metrics = spec
        .pass(traced)
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value", Json::from(o.metrics[&m.name])),
                ("unit", Json::from(m.unit.as_str())),
            ];
            if let (true, Some(s)) = (with_spread, o.spread.get(&m.name)) {
                fields.push(("q1", Json::from(s.q1)));
                fields.push(("q3", Json::from(s.q3)));
                fields.push(("n", Json::from(s.n as u64)));
            }
            (m.name.clone(), Json::obj(fields))
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::from(o.attempted)),
        ("failed", Json::from(o.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn print_metrics(spec: &Spec, traced: bool, workload: &str, o: &Outcome) {
    println!("== {workload}: {} ==", pass_name(traced));
    for m in spec.pass(traced) {
        let spread = o.spread.get(&m.name).map_or(String::new(), |s| {
            format!("  (q1 {:.4}, q3 {:.4}, n {})", s.q1, s.q3, s.n)
        });
        println!(
            "{:<44} {:>16.6} {}{spread}",
            m.name, o.metrics[&m.name], m.unit
        );
    }
    println!(
        "{:<44} {:>16.6} (failed {} of {} attempted)",
        "fail_frac",
        o.failed as f64 / o.attempted as f64,
        o.failed,
        o.attempted
    );
}

fn print_span_tables(t: &Traced) {
    for (title, table) in &t.tables {
        println!("-- spans: {title} --");
        println!(
            "{:<22} {:>9} {:>14} {:>14} {:>10}",
            "name", "count", "total_ns", "self_ns", "allocs"
        );
        for (name, r) in table {
            println!(
                "{name:<22} {:>9} {:>14} {:>14} {:>10}",
                r.count, r.total_ns, r.self_ns, r.allocs
            );
        }
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs one pass of one workload in this process. Returns the outcome, or
/// an error when the pass could not produce one.
fn run_pass(spec: &Spec, args: &Args, workload: &str, traced: bool) -> Result<Outcome, String> {
    let kind = workloads::find(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
    let io = |e: std::io::Error| format!("{workload}: {e}");
    let outcome = if traced {
        let t = match kind {
            Kind::Sim(w) => sim::run_traced(workload, &w, args.seed),
            Kind::Tcp(w) => tcp::run_traced(workload, &w, args.seed).map_err(io)?,
        };
        write(
            &args.out.join(format!("trace_{workload}.perfetto.json")),
            &t.perfetto,
        )?;
        write(
            &args.out.join(format!("trace_{workload}.spans.json")),
            &t.spans.to_compact(),
        )?;
        print_span_tables(&t);
        t.outcome
    } else {
        match kind {
            Kind::Sim(w) => sim::run_e2e(&w, args.seed, seconds),
            Kind::Tcp(w) => tcp::run_e2e(&w, args.seed, seconds).map_err(io)?,
        }
    };
    spec.check_names(traced, &outcome.metrics)?;
    Ok(outcome)
}

fn run_file(out: &Path, traced: bool, workload: &str) -> PathBuf {
    out.join(format!("run_{}_{workload}.json", pass_name(traced)))
}

/// One workload in this process: the chosen pass, or both.
fn single(spec: &Spec, args: &Args, workload: &str) -> Result<bool, String> {
    match chime_benchmark::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to CPU {cpu}"),
        None => println!("not pinned: host numbers may show cross-CPU wake-up cost"),
    }
    let mut all_correct = true;
    for traced in passes(args) {
        // A panic inside the driver or the index fails the workload: no
        // result line is printed and the exit code is non-zero.
        let outcome = std::panic::catch_unwind(|| run_pass(spec, args, workload, traced))
            .map_err(|_| format!("{workload}: panicked during the {} pass", pass_name(traced)))??;
        print_metrics(spec, traced, workload, &outcome);
        write(
            &run_file(&args.out, traced, workload),
            &result_doc(spec, traced, &outcome, true).to_pretty(),
        )?;
        all_correct &= outcome.failed == 0;
        println!("{}", result_doc(spec, traced, &outcome, false).to_compact());
    }
    Ok(all_correct)
}

/// The suite: each workload and pass in a child process of its own, so
/// that peak memory is per workload; then one merged file per pass.
fn suite(spec: &Spec, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
    let mut all_correct = true;
    for traced in passes(args) {
        let mut merged = Vec::new();
        for (workload, _) in &spec.workloads {
            let file = run_file(&args.out, traced, workload);
            let _ = std::fs::remove_file(&file);
            let status = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .arg("--spec")
                .arg(&args.spec)
                .status()
                .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
            let doc = match std::fs::read_to_string(&file) {
                Ok(text) => parse(&text)?,
                // The child died before reporting: every operation failed.
                Err(_) => Json::obj(vec![
                    ("correct", Json::Bool(false)),
                    ("attempted", Json::from(1u64)),
                    ("failed", Json::from(1u64)),
                    ("metrics", Json::Obj(Vec::new())),
                ]),
            };
            all_correct &= status.success() && doc.get("correct") == Some(&Json::Bool(true));
            merged.push((workload.clone(), doc));
        }
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
        let doc = Json::obj(vec![
            ("pass", Json::from(pass_name(traced))),
            ("seed", Json::from(args.seed)),
            ("seconds", Json::from(seconds)),
            ("host_threads", Json::from(threads)),
            ("workloads", Json::Obj(merged)),
        ]);
        let path = args.out.join(format!("{}.json", pass_name(traced)));
        write(&path, &doc.to_pretty())?;
        println!("wrote {}", path.display());
    }
    Ok(all_correct)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = Spec::load(&args.spec)?;
    if let Some((a, b)) = &args.compare {
        let load = |p: &Path| -> Result<Json, String> {
            parse(&std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?)
        };
        let (rows, problems) = compare::compare(&spec, &load(a)?, &load(b)?);
        return Ok(compare::report(&rows, &problems));
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    match &args.workload {
        Some(w) => single(&spec, &args, w),
        None => suite(&spec, &args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: failed operations or bound breaches, see above");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
