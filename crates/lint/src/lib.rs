//! skalla-lint: the workspace invariant checker.
//!
//! Skalla's correctness story rests on contracts that `rustc` cannot
//! see: the frame-tag registry must agree with the demux layer, the
//! traffic accounting, and the operator docs; library code must not
//! panic on remote input; and nothing
//! nondeterministic (wall clocks, hash-order iteration) may feed busy
//! accounting or wire encoding. This crate enforces those contracts
//! mechanically, as `cargo run -p skalla-lint`, gated in `ci.sh`.
//!
//! Deliberately dependency-free: a hand-rolled comment/string-aware
//! scanner ([`scan`]) feeds pure rule functions ([`rules`]) over an
//! in-memory [`workspace::Workspace`], so every rule is testable against
//! fixture snippets. `panic-hygiene` debt existing before the lint was
//! introduced is frozen in `lint-baseline.txt` ([`baseline`]); all other
//! rules run with an empty baseline. See `docs/STATIC_ANALYSIS.md` for
//! the rule catalog and annotation syntax.

pub mod baseline;
pub mod rules;
pub mod scan;
pub mod workspace;

use workspace::{Diagnostic, Workspace};

/// Run every rule over the workspace, in registry order. Diagnostics
/// come back sorted by path, line, then rule, so output is stable.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (_, rule) in rules::ALL_RULES {
        out.extend(rule(ws));
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });
    out
}
