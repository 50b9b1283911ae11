//! The rule engine: every rule is a pure function from a scanned
//! [`Workspace`] to a list of [`Diagnostic`]s.
//!
//! Rules are heuristic token scans, not type-checked analysis — the
//! escape hatch for a justified exception is an inline annotation:
//!
//! ```text
//! // lint: allow(<rule-key>) <non-empty reason>
//! ```
//!
//! on the offending line or the line directly above it. The reason is
//! mandatory: an annotation without one does not suppress the finding,
//! so every exception is self-documenting at the use site. Rule keys:
//! `panic` (panic-hygiene), `wall-clock`, `unordered-iter`.

mod determinism;
mod panics;
mod protocol;

use crate::workspace::{Diagnostic, Workspace};

pub use determinism::{unordered_iter, wall_clock};
pub use panics::panic_hygiene;
pub use protocol::protocol_registry;

/// A rule: a pure pass over the scanned workspace producing diagnostics.
pub type Rule = fn(&Workspace) -> Vec<Diagnostic>;

/// All rules, in report order. `panic-hygiene` is the only rule the
/// baseline applies to (existing debt is frozen; new debt is an error).
pub const ALL_RULES: &[(&str, Rule)] = &[
    ("protocol-registry", protocol_registry),
    ("panic-hygiene", panic_hygiene),
    ("wall-clock", wall_clock),
    ("unordered-iter", unordered_iter),
];

/// Does line `line` (0-based) of `file` carry a valid
/// `// lint: allow(<key>) <reason>` annotation — on the line itself, or
/// on a comment-only line directly above? (A trailing annotation on the
/// previous *code* line blesses that line only, not its neighbors.)
pub(crate) fn allowed(file: &crate::workspace::SourceFile, line: usize, key: &str) -> bool {
    let check = |l: usize| annotation_reason(file.scanned.comments.get(l), key).is_some();
    let comment_only = |l: usize| {
        file.scanned
            .code
            .get(l)
            .is_some_and(|c| c.trim().is_empty())
    };
    check(line) || (line > 0 && check(line - 1) && comment_only(line - 1))
}

/// The reason text of a `lint: allow(<key>)` annotation in a comment,
/// if present and non-empty.
fn annotation_reason(comment: Option<&String>, key: &str) -> Option<String> {
    let comment = comment?;
    let marker = format!("lint: allow({key})");
    let at = comment.find(&marker)?;
    let reason = comment[at + marker.len()..].trim();
    if reason.is_empty() {
        None
    } else {
        Some(reason.to_string())
    }
}

/// Shared diagnostic constructor.
pub(crate) fn diag(
    rule: &'static str,
    path: &str,
    line0: Option<usize>,
    message: impl Into<String>,
) -> Diagnostic {
    Diagnostic {
        rule,
        path: path.to_string(),
        line: line0.map(|l| l + 1).unwrap_or(0),
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    #[test]
    fn annotation_requires_reason() {
        let f = SourceFile::new(
            "x.unwrap(); // lint: allow(panic) guarded by is_some above\ny.unwrap(); // lint: allow(panic)\n".into(),
        );
        assert!(allowed(&f, 0, "panic"));
        assert!(!allowed(&f, 1, "panic"), "reason-less annotation is void");
        assert!(!allowed(&f, 0, "wall-clock"), "key must match");
    }

    #[test]
    fn annotation_on_preceding_line_counts() {
        let f = SourceFile::new("// lint: allow(panic) len checked on entry\nx.unwrap();\n".into());
        assert!(allowed(&f, 1, "panic"));
    }
}
