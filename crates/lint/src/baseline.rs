//! The frozen-debt baseline for `panic-hygiene`.
//!
//! Existing panic debt is recorded in `lint-baseline.txt` at the repo
//! root so the rule can be a hard error for *new* code without forcing a
//! big-bang rewrite. Entries are content-based — `(rule, path,
//! normalized source line)` with an occurrence count — not line numbers,
//! so unrelated edits above a baselined call don't invalidate the file.
//! Deleting debt never breaks the build (stale entries are reported but
//! harmless); adding debt always does.
//!
//! Only `panic-hygiene` is baselined. The registry and
//! determinism rules have an empty baseline by construction: their
//! findings are either fixed or annotated at the use site.

use crate::workspace::{Diagnostic, Workspace};
use std::collections::BTreeMap;

/// Rules the baseline applies to. Everything else is always strict.
pub const BASELINED_RULES: &[&str] = &["panic-hygiene"];

/// A parsed baseline: `(rule, path, snippet)` → allowed occurrence count.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<(String, String, String), usize>,
}

/// What filtering against the baseline produced.
pub struct Filtered {
    /// Diagnostics not covered by the baseline (still violations).
    pub kept: Vec<Diagnostic>,
    /// Diagnostics suppressed as frozen debt.
    pub suppressed: usize,
    /// Baseline entries that matched nothing (debt that was paid down —
    /// refresh with `--update-baseline` to shrink the file).
    pub stale: usize,
}

impl Baseline {
    /// Parse the tab-separated baseline format:
    /// `rule<TAB>path<TAB>count<TAB>snippet`. Blank lines and `#`
    /// comments are skipped; malformed lines are reported as errors.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = BTreeMap::new();
        for (lineno, line) in text.split('\n').enumerate() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(4, '\t');
            let (rule, path, count, snippet) = (
                parts.next().unwrap_or(""),
                parts.next().unwrap_or(""),
                parts.next().unwrap_or(""),
                parts.next().unwrap_or(""),
            );
            let Ok(count) = count.parse::<usize>() else {
                return Err(format!(
                    "baseline line {}: malformed (want `rule<TAB>path<TAB>count<TAB>snippet`)",
                    lineno + 1
                ));
            };
            if rule.is_empty() || path.is_empty() || snippet.is_empty() {
                return Err(format!("baseline line {}: empty field", lineno + 1));
            }
            *entries
                .entry((rule.to_string(), path.to_string(), snippet.to_string()))
                .or_insert(0) += count;
        }
        Ok(Baseline { entries })
    }

    /// Build a baseline freezing `diags` (only the baselined rules).
    pub fn freeze(ws: &Workspace, diags: &[Diagnostic]) -> Baseline {
        let mut entries = BTreeMap::new();
        for d in diags {
            if !BASELINED_RULES.contains(&d.rule) {
                continue;
            }
            let key = (d.rule.to_string(), d.path.clone(), snippet_for(ws, d));
            *entries.entry(key).or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Serialize back to the on-disk format (deterministic order).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# skalla-lint frozen debt. One entry per distinct offending line:\n\
             # rule<TAB>path<TAB>count<TAB>normalized source line.\n\
             # Regenerate with `cargo run -p skalla-lint -- --update-baseline`.\n\
             # Shrinking this file is progress; growing it needs a review.\n",
        );
        for ((rule, path, snippet), count) in &self.entries {
            out.push_str(&format!("{rule}\t{path}\t{count}\t{snippet}\n"));
        }
        out
    }

    /// Suppress diagnostics covered by the baseline. Each entry's count
    /// is a budget: occurrences beyond it are new debt and stay errors.
    pub fn filter(&self, ws: &Workspace, diags: Vec<Diagnostic>) -> Filtered {
        let mut budget = self.entries.clone();
        let mut kept = Vec::new();
        let mut suppressed = 0usize;
        for d in diags {
            if !BASELINED_RULES.contains(&d.rule) {
                kept.push(d);
                continue;
            }
            let key = (d.rule.to_string(), d.path.clone(), snippet_for(ws, &d));
            match budget.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    suppressed += 1;
                }
                _ => kept.push(d),
            }
        }
        let stale = budget.values().filter(|n| **n > 0).count();
        Filtered {
            kept,
            suppressed,
            stale,
        }
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the baseline holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The whitespace-normalized source line a diagnostic points at (the
/// content key that survives reformatting and line moves).
fn snippet_for(ws: &Workspace, d: &Diagnostic) -> String {
    let line = d.line.checked_sub(1).and_then(|l| {
        ws.get(&d.path)
            .and_then(|f| f.raw.split('\n').nth(l))
    });
    match line {
        Some(l) => l.split_whitespace().collect::<Vec<_>>().join(" "),
        None => String::from("<file-level>"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_with(src: &str) -> Workspace {
        let mut ws = Workspace::default();
        ws.add("crates/core/src/x.rs", src.to_string());
        ws
    }

    fn d(line: usize) -> Diagnostic {
        Diagnostic {
            rule: "panic-hygiene",
            path: "crates/core/src/x.rs".into(),
            line,
            message: "m".into(),
        }
    }

    #[test]
    fn roundtrip_and_budget() {
        let ws = ws_with("a.unwrap();\nb.unwrap();\na.unwrap();\n");
        let diags = vec![d(1), d(2), d(3)];
        let base = Baseline::freeze(&ws, &diags);
        assert_eq!(base.len(), 2, "two distinct snippets");
        let reparsed = Baseline::parse(&base.render()).unwrap();
        assert_eq!(reparsed, base);
        let f = reparsed.filter(&ws, diags);
        assert!(f.kept.is_empty());
        assert_eq!((f.suppressed, f.stale), (3, 0));
    }

    #[test]
    fn new_debt_exceeds_budget() {
        let ws = ws_with("a.unwrap();\na.unwrap();\n");
        let base = Baseline::freeze(&ws, &[d(1)]); // budget: 1 occurrence
        let f = base.filter(&ws, vec![d(1), d(2)]);
        assert_eq!(f.kept.len(), 1, "second occurrence is new debt");
        assert_eq!(f.suppressed, 1);
    }

    #[test]
    fn line_moves_do_not_invalidate() {
        let old = ws_with("a.unwrap();\n");
        let base = Baseline::freeze(&old, &[d(1)]);
        let new = ws_with("// a new comment line\na.unwrap();\n");
        let f = base.filter(&new, vec![d(2)]);
        assert!(f.kept.is_empty(), "content key survives the line move");
    }

    #[test]
    fn strict_rules_bypass_baseline() {
        let ws = ws_with("a.unwrap();\n");
        let base = Baseline::freeze(&ws, &[d(1)]);
        let strict = Diagnostic {
            rule: "wall-clock",
            path: "crates/core/src/x.rs".into(),
            line: 1,
            message: "m".into(),
        };
        let f = base.filter(&ws, vec![strict.clone()]);
        assert_eq!(f.kept, vec![strict]);
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(Baseline::parse("panic-hygiene\tonly-two-fields\n").is_err());
        assert!(Baseline::parse("# comment\n\n").unwrap().is_empty());
    }
}
