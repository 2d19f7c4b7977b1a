//! The rule registry and shared token-pattern helpers.
//!
//! Every rule is a pure function from a [`SourceFile`] to findings; the
//! engine runs them in a fixed order and sorts findings afterwards, so
//! rule execution order never shows in the output.

use crate::callgraph::CallGraph;
use crate::dataflow::Dataflow;
use crate::lexer::{int_value, Tok, TokKind};
use crate::report::Finding;
use crate::source::{call_args, SourceFile, TokRange};
use crate::workspace::Workspace;

pub mod asyncblock;
pub mod balance;
pub mod cq;
pub mod determinism;
pub mod epoch;
pub mod layout;
pub mod lockdiscipline;
pub mod lockorder;
pub mod maskconsistency;
pub mod phase;
pub mod tracecontext;
pub mod unsafety;

/// Rule identifiers, in registry order. `suppression` (malformed
/// suppression comments) is emitted by the engine itself.
pub const RULES: &[&str] = &[
    "determinism",
    "phase-balance",
    "lock-discipline",
    "unsafe-comment",
    "lockword-layout",
    "cq-discipline",
    "async-block",
    "epoch-discipline",
    "trace-context",
    "lock-order",
    "mask-consistency",
    "suppression",
];

/// Runs the per-file rules on `file`.
pub fn run_file(file: &SourceFile, out: &mut Vec<Finding>) {
    determinism::check(file, out);
    lockdiscipline::check_loops(file, out);
    unsafety::check(file, out);
    layout::check(file, out);
    asyncblock::check(file, out);
    epoch::check(file, out);
}

/// Runs the whole-program rules once over the analyzed workspace.
pub fn run_workspace(ws: &Workspace, cg: &CallGraph, dfa: &Dataflow, out: &mut Vec<Finding>) {
    phase::check(ws, cg, dfa, out);
    lockdiscipline::check_release(ws, cg, dfa, out);
    cq::check(ws, cg, dfa, out);
    tracecontext::check(ws, cg, dfa, out);
    lockorder::check(ws, cg, dfa, out);
    maskconsistency::check(ws, out);
}

/// Whether the token at `i` is a *call* of the named function: an
/// identifier immediately followed by `(`, not a definition (`fn name`).
pub(crate) fn is_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks[i].is_ident(name)
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        && !(i > 0 && toks[i - 1].is_ident("fn"))
}

/// The literal value of a single-token integer argument group, if it is
/// one. `u64::MAX` and `!0` count as [`u64::MAX`].
pub(crate) fn group_int(toks: &[Tok], g: TokRange) -> Option<u64> {
    let args = &toks[g.0..g.1];
    match args {
        [t] if t.kind == TokKind::Num => int_value(&t.text),
        [a, c1, c2, b]
            if a.is_ident("u64") && c1.is_punct(':') && c2.is_punct(':') && b.is_ident("MAX") =>
        {
            Some(u64::MAX)
        }
        [bang, t] if bang.is_punct('!') && t.kind == TokKind::Num && int_value(&t.text) == Some(0) =>
        {
            Some(u64::MAX)
        }
        _ => None,
    }
}

/// A `masked_cas` call site with its argument groups.
pub(crate) struct MaskedCasCall {
    /// Index of the `masked_cas` identifier token.
    pub idx: usize,
    /// 1-based line of the call.
    pub line: u32,
    /// Argument token ranges (`addr, compare, cmask, swap, smask`).
    pub args: Vec<TokRange>,
}

/// Finds every `masked_cas(...)` call in `range`.
pub(crate) fn masked_cas_calls(toks: &[Tok], range: TokRange) -> Vec<MaskedCasCall> {
    let mut out = Vec::new();
    for i in range.0..range.1.min(toks.len()) {
        if is_call(toks, i, "masked_cas") {
            if let Some(args) = call_args(toks, i + 1) {
                out.push(MaskedCasCall {
                    idx: i,
                    line: toks[i].line,
                    args,
                });
            }
        }
    }
    out
}

impl MaskedCasCall {
    /// Whether this call has the lock-acquire shape
    /// (`compare=0, cmask=1, swap=1, smask=1`), judged from literal
    /// arguments only.
    pub fn is_acquire_shape(&self, toks: &[Tok]) -> bool {
        self.args.len() == 5
            && group_int(toks, self.args[1]) == Some(0)
            && group_int(toks, self.args[2]) == Some(1)
            && group_int(toks, self.args[3]) == Some(1)
            && group_int(toks, self.args[4]) == Some(1)
    }
}
