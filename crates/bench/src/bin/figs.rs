//! `figs`: regenerates the paper's tables and figures from the one figure
//! table (`bench::figs::FIGURES`) and judges the paper's claims over them.
//!
//! Each selected figure prints one row per point, writes
//! `BENCH_<name>.json` (and `TIMELINE_<name>.json`) into `$BENCH_OUT_DIR`,
//! and has its claims evaluated in-process. `--all` at the published scale
//! also writes `claims.json` beside them. Exits 1 when a claim's verdict is
//! unexplained in either direction (a `Pass` that fails, an `ExpectedFail`
//! that passes) or names a point its figure did not produce; `--only` runs
//! part of a figure and therefore judges nothing.

use bench::figs::{self, claims, Args, Scale};

const USAGE: &str = "figs <name>... | --all | --list  [--preload N] [--ops N] [--only <key-prefix>]";

fn main() {
    let args = Args::parse(USAGE, &["preload", "ops", "only"], &["all", "list"]);
    let (preload, ops): (Option<u64>, Option<u64>) = (args.get("preload"), args.get("ops"));
    let only: Option<String> = args.get("only");
    let selected: Vec<&figs::Figure> = if args.flag("all") || (args.flag("list") && args.names.is_empty()) {
        figs::FIGURES.iter().collect()
    } else {
        let find = |n: &String| figs::figure(n).unwrap_or_else(|| args.die(&format!("unknown figure {n:?}")));
        args.names.iter().map(find).collect()
    };
    if selected.is_empty() || (args.flag("all") && !args.names.is_empty()) {
        args.die("name at least one figure, or pass --all or --list");
    }
    if args.flag("list") {
        for fig in selected {
            let spec = fig.spec(fig.scale);
            println!("{}: {} (preload {}, ops {})", fig.name, fig.title, fig.scale.preload, fig.scale.ops);
            spec.parts.iter().flat_map(|p| p.point_keys()).for_each(|k| println!("  {k}"));
            spec.claims.iter().for_each(|c| println!("  claim {}", c.id));
        }
        return;
    }

    let mut verdicts = Vec::new();
    for fig in selected {
        let scale = Scale {
            preload: preload.unwrap_or(fig.scale.preload),
            ops: ops.unwrap_or(fig.scale.ops),
        };
        let rep = figs::run_figure(fig, scale, only.as_deref());
        rep.finish();
        if only.is_some() {
            println!("claims: not judged (--only runs part of the figure)\n");
            continue;
        }
        let judged = claims::evaluate(&fig.spec(scale).claims, rep.points()).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", fig.name);
            std::process::exit(1)
        });
        judged.iter().for_each(|v| println!("{}", v.line()));
        println!();
        verdicts.extend(judged.into_iter().map(|v| (fig.name, v)));
    }
    let unexplained = verdicts.iter().filter(|(_, v)| v.unexplained()).count();
    println!("claims: {} judged, {unexplained} unexplained", verdicts.len());
    if args.flag("all") && preload.is_none() && ops.is_none() && only.is_none() {
        bench::report::write_out("claims.json", &claims::document(&verdicts));
    }
    if unexplained > 0 {
        std::process::exit(1);
    }
}
