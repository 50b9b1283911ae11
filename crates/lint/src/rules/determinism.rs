//! Determinism hygiene: `wall-clock` and `unordered-iter`.
//!
//! Two rules guard the engine's central reproducibility claims — that
//! site-busy figures are thread-CPU measurements (never wall clocks,
//! which charge a simulated site for time it spent descheduled) and that
//! everything crossing the wire or feeding a result merge is
//! deterministically ordered (never raw `HashMap`/`HashSet` iteration
//! order, which varies per process thanks to `RandomState`).

use super::{allowed, diag};
use crate::scan::{find_ident, has_ident};
use crate::workspace::{Diagnostic, SourceFile, Workspace};

/// Site-busy and merge-order code paths: files where a wall-clock read
/// would silently corrupt busy accounting or merge determinism. The one
/// approved clock module is `skalla-obs::timing` (`BusyTimer`), which
/// owns the CPU-clock-with-wall-fallback policy.
const CLOCK_SCOPE: &[&str] = &[
    "crates/core/src/site.rs",
    "crates/core/src/skew.rs",
    "crates/core/src/coordinator.rs",
    "crates/gmdj/src/eval.rs",
    "crates/gmdj/src/columnar.rs",
    "crates/gmdj/src/operator.rs",
    "crates/gmdj/src/agg.rs",
    "crates/gmdj/src/chain.rs",
];

/// Files whose output feeds wire encoding or result merge order.
const ORDER_SCOPE: &[&str] = &[
    "crates/core/src/protocol.rs",
    "crates/core/src/plan_codec.rs",
    "crates/core/src/coordinator.rs",
    "crates/core/src/coordinator/run.rs",
    "crates/core/src/cluster.rs",
    "crates/core/src/site.rs",
    "crates/core/src/skew.rs",
    "crates/core/src/remote.rs",
    "crates/gmdj/src/codec.rs",
    "crates/relation/src/codec.rs",
];

/// `wall-clock`: no `Instant::now` / `SystemTime::now` in site-busy or
/// merge-order code paths; use `skalla_obs::BusyTimer` (thread CPU time)
/// or justify with `// lint: allow(wall-clock) <reason>`.
pub fn wall_clock(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (path, file) in ws.iter() {
        if !CLOCK_SCOPE.contains(&path) {
            continue;
        }
        for (lineno, code) in file.scanned.code.iter().enumerate() {
            if file.scanned.in_test[lineno] {
                continue;
            }
            for clock in ["Instant", "SystemTime"] {
                let Some(at) = find_ident(code, clock) else {
                    continue;
                };
                if !code[at..].starts_with(&format!("{clock}::now")) {
                    continue;
                }
                if allowed(file, lineno, "wall-clock") {
                    continue;
                }
                out.push(diag(
                    "wall-clock",
                    path,
                    Some(lineno),
                    format!(
                        "`{clock}::now` in a site-busy/merge-order path; measure with \
                         `skalla_obs::BusyTimer` (thread CPU time) or justify with \
                         `// lint: allow(wall-clock) <reason>`"
                    ),
                ));
            }
        }
    }
    out
}

/// `unordered-iter`: in wire-encoding and merge-order files, iterating a
/// `HashMap`/`HashSet` must be justified (`// lint: allow(unordered-iter)
/// <reason>`) — or replaced with a sorted collect / `BTreeMap`.
pub fn unordered_iter(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (path, file) in ws.iter() {
        if !ORDER_SCOPE.contains(&path) {
            continue;
        }
        let names = hash_bindings(file);
        for (lineno, code) in file.scanned.code.iter().enumerate() {
            if file.scanned.in_test[lineno] {
                continue;
            }
            for name in &names {
                let Some(kind) = iterated(code, name) else {
                    continue;
                };
                if allowed(file, lineno, "unordered-iter") {
                    continue;
                }
                out.push(diag(
                    "unordered-iter",
                    path,
                    Some(lineno),
                    format!(
                        "`{name}` is a HashMap/HashSet and `{kind}` iterates it in hash \
                         order, which is nondeterministic per process; sort before \
                         encoding/merging or justify with \
                         `// lint: allow(unordered-iter) <reason>`"
                    ),
                ));
            }
        }
    }
    out
}

/// Names bound to a `HashMap`/`HashSet` *as the outermost type* in this
/// file: `let NAME = HashMap::…`, `NAME: HashMap<…>` (params, struct
/// fields), including `&`/`&mut` borrows. `Vec<HashMap<…>>` does not
/// bind — iterating the vector is ordered.
fn hash_bindings(file: &SourceFile) -> Vec<String> {
    let mut names = Vec::new();
    for (lineno, code) in file.scanned.code.iter().enumerate() {
        if file.scanned.in_test[lineno] {
            continue;
        }
        for ty in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(at) = find_ident(&code[from..], ty).map(|p| p + from) {
                if let Some(name) = binding_before(code, at) {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
                from = at + ty.len();
            }
        }
    }
    names
}

/// The identifier this `HashMap`/`HashSet` occurrence (at byte `at`)
/// binds, if the occurrence is the outermost type of a `let` or a
/// `name: Type` annotation.
fn binding_before(code: &str, at: usize) -> Option<String> {
    let head = code[..at].trim_end();
    // `let NAME =` / `let mut NAME =` / `let NAME: ` forms, and
    // `NAME: ` / `NAME: &` / `NAME: &mut ` annotations. Everything
    // between the separator and the type must be borrow sigils only.
    let head = head
        .strip_suffix("&mut")
        .or_else(|| head.strip_suffix('&'))
        .unwrap_or(head)
        .trim_end();
    if let Some(before_eq) = head.strip_suffix('=') {
        // `let [mut] NAME = [&[mut]] HashMap::…`
        let before_eq = before_eq.trim_end();
        let name = last_ident(before_eq)?;
        let lead = before_eq[..before_eq.len() - name.len()].trim_end();
        return (lead.ends_with("let") || lead.ends_with("mut")).then_some(name);
    }
    if let Some(before_colon) = head.strip_suffix(':') {
        let name = last_ident(before_colon.trim_end())?;
        // Skip path segments (`std::collections::HashMap`), which leave
        // a trailing `:` from `::`.
        if before_colon.trim_end().ends_with(':') {
            return None;
        }
        return Some(name);
    }
    None
}

fn last_ident(s: &str) -> Option<String> {
    let end = s.len();
    let start = s
        .char_indices()
        .rev()
        .take_while(|(_, c)| c.is_ascii_alphanumeric() || *c == '_')
        .last()?
        .0;
    let name = &s[start..end];
    let first = name.chars().next()?;
    (first == '_' || first.is_ascii_alphabetic()).then(|| name.to_string())
}

/// If `code` iterates `name` unordered, the offending form.
fn iterated(code: &str, name: &str) -> Option<&'static str> {
    const ITERS: &[&str] = &[
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".into_keys()",
        ".into_values()",
        ".drain(",
    ];
    let mut from = 0;
    while let Some(at) = find_ident(&code[from..], name).map(|p| p + from) {
        let rest = &code[at + name.len()..];
        for it in ITERS {
            if rest.starts_with(it) {
                return Some(it);
            }
        }
        // `for x in name {` / `for x in &name {`
        let head = code[..at].trim_end();
        let borrowed = head.strip_suffix("&mut").or_else(|| head.strip_suffix('&'));
        let head = borrowed.unwrap_or(head).trim_end();
        if head.ends_with(" in") && has_ident(code, "for") {
            let next = rest.trim_start().chars().next();
            if matches!(next, Some('{') | None) {
                return Some("for … in");
            }
        }
        from = at + name.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(path: &str, src: &str) -> Workspace {
        let mut ws = Workspace::default();
        ws.add(path, src.to_string());
        ws
    }

    #[test]
    fn flags_hashmap_iteration_in_scope() {
        let src = "fn f(map: HashMap<String, u32>, enc: &mut Encoder) {\n    for (k, v) in &map {\n        enc.put_str(k);\n    }\n}\n";
        let d = unordered_iter(&ws("crates/core/src/protocol.rs", src));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        // Same file out of scope: silent.
        assert!(unordered_iter(&ws("crates/core/src/plan.rs", src)).is_empty());
    }

    #[test]
    fn vec_of_hashmap_is_ordered() {
        let src = "fn f(sites: Vec<HashMap<String, u32>>) {\n    for s in &sites {}\n}\n";
        assert!(unordered_iter(&ws("crates/core/src/protocol.rs", src)).is_empty());
    }

    #[test]
    fn sorted_collect_and_annotation_pass() {
        let src = "fn f(map: HashMap<String, u32>) {\n    let mut keys: Vec<&String> = map.keys().collect(); // lint: allow(unordered-iter) sorted on the next line\n    keys.sort();\n}\n";
        assert!(unordered_iter(&ws("crates/core/src/protocol.rs", src)).is_empty());
    }

    #[test]
    fn wall_clock_in_scope_only_and_annotatable() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(wall_clock(&ws("crates/core/src/site.rs", src)).len(), 1);
        assert!(wall_clock(&ws("crates/obs/src/timing.rs", src)).is_empty());
        let ok = "fn f() { let t = Instant::now(); } // lint: allow(wall-clock) span arg only\n";
        assert!(wall_clock(&ws("crates/core/src/site.rs", ok)).is_empty());
        // `Instant` alone (a type annotation) is fine.
        assert!(wall_clock(&ws("crates/core/src/site.rs", "fn f(t: Instant) {}\n")).is_empty());
    }
}
