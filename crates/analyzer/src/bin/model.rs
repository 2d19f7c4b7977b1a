//! The `chime-model` binary.
//!
//! ```text
//! chime-model [--json PATH] [--quiet]
//! ```
//!
//! Exhaustively model-checks the lock-lease protocol (mutual exclusion,
//! lease safety, progress) and the migration crash/recovery protocol
//! (routing integrity, journal discipline) over every interleaving of
//! their abstract actors, plus two seeded-bug probes the checker must
//! refute. The lock-word layout is the one `chime::lockword` ships.
//! Prints the deterministic summary and, with `--json`, writes the
//! byte-identical machine-readable report. Exit code 0 when every
//! expectation is met, 1 otherwise, 2 on usage or I/O errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use analyzer::model::lease::WordLayout;
use analyzer::model::suite;

fn main() -> ExitCode {
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => match args.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => return usage("--json needs a value"),
            },
            "--quiet" => quiet = true,
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let result = suite::run(WordLayout::shipping(), "crates/core/src/lockword.rs");
    if let Some(path) = &json_out {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("chime-model: cannot create {}: {e}", parent.display());
                    return ExitCode::from(2);
                }
            }
        }
        if let Err(e) = std::fs::write(path, result.to_json()) {
            eprintln!("chime-model: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !quiet || !result.pass() {
        print!("{}", result.to_text());
    }
    if result.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("chime-model: {err}\nusage: chime-model [--json PATH] [--quiet]");
    ExitCode::from(2)
}
