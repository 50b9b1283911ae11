//! `protocol-registry`: the frame-tag registry is closed and consistent.
//!
//! The v2 protocol's tag space is defined once, in
//! `crates/core/src/protocol.rs`. This rule cross-checks that registry
//! against everything that must agree with it:
//!
//! * tags are unique and each carries a rustdoc comment;
//! * every tag is handled somewhere in the demux/dispatch layer;
//! * every `NetStats` record site classifies by tag (telemetry-style
//!   exemptions must name the tag constant they exempt — an
//!   unclassified record site is an error);
//! * the frame catalog in `docs/ARCHITECTURE.md` lists exactly the
//!   registry's tags, under the right names, with the `Accounted?`
//!   column matching what the record sites actually exempt.

use super::diag;
use crate::scan::has_ident;
use crate::workspace::{Diagnostic, Workspace};
use std::collections::BTreeMap;

/// The single source of truth for frame tags.
const PROTOCOL_FILE: &str = "crates/core/src/protocol.rs";
/// Transport-level constants (`TELEMETRY_TAG`) that registry entries may
/// alias.
const TRANSPORT_FILE: &str = "crates/net/src/transport.rs";
/// The operator-facing frame catalog the registry must stay in sync with.
const DOC_FILE: &str = "docs/ARCHITECTURE.md";
/// Files implementing frame demux/dispatch; every tag must be consumed
/// by at least one of them.
const DISPATCH_FILES: &[&str] = &[
    "crates/core/src/site.rs",
    "crates/core/src/coordinator.rs",
    "crates/core/src/coordinator/run.rs",
    "crates/core/src/remote.rs",
    "crates/core/src/warehouse.rs",
    "crates/net/src/mux.rs",
];
/// How many preceding code lines a record site may be from its
/// tag-classifying guard.
const GUARD_WINDOW: usize = 8;

/// One parsed `pub const TAG_*` registry entry.
struct TagConst {
    name: String,
    /// Resolved numeric value, if the initializer parsed/resolved.
    value: Option<u8>,
    /// Alias identifier (e.g. `TELEMETRY_TAG`) if the initializer is a
    /// path rather than a literal.
    alias: Option<String>,
    line0: usize,
    has_doc: bool,
}

/// Run the rule.
pub fn protocol_registry(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(proto) = ws.get(PROTOCOL_FILE) else {
        return out;
    };
    let aliases = tag_aliases(ws);
    let tags = parse_tags(proto, &aliases);
    if tags.is_empty() {
        out.push(diag(
            "protocol-registry",
            PROTOCOL_FILE,
            None,
            "no `pub const TAG_*: u8` registry entries found; the rule needs \
             updating if the registry moved",
        ));
        return out;
    }

    // Resolution, rustdoc, uniqueness.
    let mut by_value: BTreeMap<u8, &str> = BTreeMap::new();
    for t in &tags {
        if !t.has_doc {
            out.push(diag(
                "protocol-registry",
                PROTOCOL_FILE,
                Some(t.line0),
                format!("`{}` has no rustdoc comment; every frame tag documents its meaning", t.name),
            ));
        }
        let Some(v) = t.value else {
            out.push(diag(
                "protocol-registry",
                PROTOCOL_FILE,
                Some(t.line0),
                format!(
                    "could not resolve the value of `{}` (initializer is neither a \
                     literal nor a known `*_TAG` alias)",
                    t.name
                ),
            ));
            continue;
        };
        if let Some(prev) = by_value.insert(v, &t.name) {
            out.push(diag(
                "protocol-registry",
                PROTOCOL_FILE,
                Some(t.line0),
                format!("`{}` reuses tag value {v}, already taken by `{prev}`", t.name),
            ));
        }
    }

    // Dispatch coverage: the tag (or its alias) appears in some demux file.
    for t in &tags {
        let mut names = vec![t.name.as_str()];
        if let Some(a) = &t.alias {
            names.push(a.as_str());
        }
        let handled = DISPATCH_FILES.iter().any(|path| {
            ws.get(path).is_some_and(|f| {
                f.scanned.code.iter().enumerate().any(|(l, line)| {
                    !f.scanned.in_test[l] && names.iter().any(|n| has_ident(line, n))
                })
            })
        });
        if !handled {
            out.push(diag(
                "protocol-registry",
                PROTOCOL_FILE,
                Some(t.line0),
                format!(
                    "`{}` is not referenced by any demux/dispatch file ({}); \
                     an unhandled tag is dead wire format",
                    t.name,
                    DISPATCH_FILES.join(", ")
                ),
            ));
        }
    }

    // Accounting: every record site classifies by tag; the union of tags
    // named at record sites is the accounting-exempt set.
    let (exempt, mut acct_diags) = accounting_exemptions(ws, &tags, &aliases);
    out.append(&mut acct_diags);

    // Frame catalog in the docs.
    out.append(&mut check_doc_catalog(ws, &tags, &exempt));

    out
}

/// `*_TAG` constants defined at transport level, by name → value.
fn tag_aliases(ws: &Workspace) -> BTreeMap<String, u8> {
    let mut aliases = BTreeMap::new();
    if let Some(f) = ws.get(TRANSPORT_FILE) {
        for line in &f.scanned.code {
            let Some((name, init)) = parse_const_u8(line) else {
                continue;
            };
            if let (true, Ok(v)) = (name.ends_with("_TAG"), init.parse::<u8>()) {
                aliases.insert(name, v);
            }
        }
    }
    aliases
}

/// `(name, initializer)` if `line` is a `const NAME: u8 = INIT;` item.
fn parse_const_u8(line: &str) -> Option<(String, String)> {
    let at = line.find("const ")?;
    let rest = &line[at + "const ".len()..];
    let (name, rest) = rest.split_once(':')?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("u8")?;
    let (_, init) = rest.split_once('=')?;
    let init = init.trim().trim_end_matches(';').trim();
    Some((name.trim().to_string(), init.to_string()))
}

/// Parse the registry entries out of the protocol file.
fn parse_tags(proto: &crate::workspace::SourceFile, aliases: &BTreeMap<String, u8>) -> Vec<TagConst> {
    let mut tags = Vec::new();
    for (lineno, line) in proto.scanned.code.iter().enumerate() {
        if proto.scanned.in_test[lineno] || !line.contains("pub const TAG_") {
            continue;
        }
        let Some((name, init)) = parse_const_u8(line) else {
            continue;
        };
        let (value, alias) = match init.parse::<u8>() {
            Ok(v) => (Some(v), None),
            Err(_) => {
                let last = init.rsplit("::").next().unwrap_or(&init).to_string();
                (aliases.get(&last).copied(), Some(last))
            }
        };
        // Rustdoc: the comment on the preceding line starts with `/`
        // (the scanner records text after `//`, so `///` leaves `/ …`).
        let has_doc = lineno > 0
            && proto
                .scanned
                .comments
                .get(lineno - 1)
                .is_some_and(|c| c.starts_with('/'));
        tags.push(TagConst {
            name,
            value,
            alias,
            line0: lineno,
            has_doc,
        });
    }
    tags
}

/// Check every `NetStats` record call site in `crates/net/src` for a
/// tag-classifying guard, and collect the exempted tag values.
fn accounting_exemptions(
    ws: &Workspace,
    tags: &[TagConst],
    aliases: &BTreeMap<String, u8>,
) -> (Vec<u8>, Vec<Diagnostic>) {
    let mut known: BTreeMap<String, u8> = aliases.clone();
    for t in tags {
        if let Some(v) = t.value {
            known.insert(t.name.clone(), v);
        }
    }
    let mut exempt = Vec::new();
    let mut out = Vec::new();
    for (path, file) in ws.under("crates/net/src/") {
        if path.ends_with("/stats.rs") {
            continue; // the sink itself, not a call site
        }
        for (lineno, code) in file.scanned.code.iter().enumerate() {
            if file.scanned.in_test[lineno] {
                continue;
            }
            let is_site = [".record(", ".record_msg(", ".record_msg_for("]
                .iter()
                .any(|p| code.contains(p));
            if !is_site {
                continue;
            }
            let window_start = lineno.saturating_sub(GUARD_WINDOW);
            let mut classified = false;
            for l in window_start..=lineno {
                for ident in tag_idents(&file.scanned.code[l]) {
                    classified = true;
                    if let Some(v) = known.get(&ident) {
                        if !exempt.contains(v) {
                            exempt.push(*v);
                        }
                    }
                }
            }
            if !classified {
                out.push(diag(
                    "protocol-registry",
                    path,
                    Some(lineno),
                    "NetStats record site has no tag-classifying guard within the \
                     preceding lines; every record site must count or exempt by an \
                     explicit `TAG_*` constant",
                ));
            }
        }
    }
    exempt.sort_unstable();
    (exempt, out)
}

/// All `TAG_*` / `*_TAG` identifiers on one code line.
fn tag_idents(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_alphabetic() && bytes[i] != b'_' {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        if start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
            continue;
        }
        let word = &code[start..i];
        let uppercase = word.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
        if uppercase && (word.starts_with("TAG_") || word.ends_with("_TAG")) {
            out.push(word.to_string());
        }
    }
    out
}

/// Cross-check the Markdown frame catalog against the registry and the
/// observed accounting exemptions.
fn check_doc_catalog(ws: &Workspace, tags: &[TagConst], exempt: &[u8]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(doc) = ws.get(DOC_FILE) else {
        out.push(diag(
            "protocol-registry",
            DOC_FILE,
            None,
            "missing; the frame catalog is part of the protocol contract",
        ));
        return out;
    };
    // Rows: `| <tag> | `NAME` | direction | payload | accounted |`,
    // taken from the raw Markdown (the Rust scanner is meaningless here).
    let mut doc_rows: Vec<(u8, String, bool, usize)> = Vec::new(); // (tag, name, accounted, line0)
    let mut in_catalog = false;
    for (lineno, line) in doc.raw.split('\n').enumerate() {
        if line.starts_with('#') {
            in_catalog = line.to_ascii_lowercase().contains("frame catalog");
            continue;
        }
        if !in_catalog || !line.trim_start().starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim().trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 5 || cells[0].contains("---") || cells[0].eq_ignore_ascii_case("tag") {
            continue;
        }
        let Ok(tag) = cells[0].trim_matches('`').parse::<u8>() else {
            out.push(diag(
                "protocol-registry",
                DOC_FILE,
                Some(lineno),
                format!("frame catalog row has non-numeric tag `{}`", cells[0]),
            ));
            continue;
        };
        let name = cells[1].trim_matches('`').to_string();
        let acct_cell = cells[4].to_ascii_lowercase().replace('*', "");
        let accounted = if acct_cell.trim().starts_with("yes") {
            true
        } else if acct_cell.trim().starts_with("no") {
            false
        } else {
            out.push(diag(
                "protocol-registry",
                DOC_FILE,
                Some(lineno),
                format!(
                    "frame catalog row for tag {tag} has unparseable `Accounted?` \
                     cell `{}` (must start with yes/no)",
                    cells[4]
                ),
            ));
            true
        };
        doc_rows.push((tag, name, accounted, lineno));
    }
    if doc_rows.is_empty() {
        out.push(diag(
            "protocol-registry",
            DOC_FILE,
            None,
            "no parseable rows under a `frame catalog` heading; the catalog table \
             is part of the protocol contract",
        ));
        return out;
    }

    // Registry → docs.
    for t in tags {
        let Some(v) = t.value else { continue };
        let expected_name = t.name.strip_prefix("TAG_").unwrap_or(&t.name);
        match doc_rows.iter().find(|(tag, ..)| *tag == v) {
            None => out.push(diag(
                "protocol-registry",
                DOC_FILE,
                None,
                format!("frame catalog is missing tag {v} (`{}`)", t.name),
            )),
            Some((_, name, accounted, lineno)) => {
                if name != expected_name {
                    out.push(diag(
                        "protocol-registry",
                        DOC_FILE,
                        Some(*lineno),
                        format!(
                            "frame catalog names tag {v} `{name}`, but the registry \
                             calls it `{}` (expected `{expected_name}`)",
                            t.name
                        ),
                    ));
                }
                let is_exempt = exempt.contains(&v);
                if *accounted == is_exempt {
                    let (doc_says, code_says) = if is_exempt {
                        ("accounted", "exempted at the record sites")
                    } else {
                        ("exempt", "counted at the record sites")
                    };
                    out.push(diag(
                        "protocol-registry",
                        DOC_FILE,
                        Some(*lineno),
                        format!(
                            "frame catalog says tag {v} (`{expected_name}`) is \
                             {doc_says}, but it is {code_says}"
                        ),
                    ));
                }
            }
        }
    }
    // Docs → registry (no phantom rows).
    for (tag, name, _, lineno) in &doc_rows {
        if !tags.iter().any(|t| t.value == Some(*tag)) {
            out.push(diag(
                "protocol-registry",
                DOC_FILE,
                Some(*lineno),
                format!("frame catalog lists tag {tag} (`{name}`), which is not in the registry"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROTO: &str = "\
/// Run one stage.
pub const TAG_RUN_STAGE: u8 = 1;
/// Telemetry frame (alias of the transport constant).
pub const TAG_TELEMETRY: u8 = skalla_net::TELEMETRY_TAG;
";
    const TRANSPORT: &str = "/// Transport-reserved telemetry tag.\npub const TELEMETRY_TAG: u8 = 9;\n";
    const SITE: &str = "fn demux(tag: u8) { if tag == TAG_RUN_STAGE || tag == TAG_TELEMETRY {} }\n";
    const TCP: &str = "\
fn send(msg: &Msg, stats: &NetStats) {
    if msg.tag != crate::transport::TELEMETRY_TAG {
        stats.record_msg_for(msg);
    }
}
";
    const DOC: &str = "\
## Protocol v2 frame catalog

| Tag | Name | Direction | Payload | Accounted? |
|-----|------|-----------|---------|------------|
| 1 | `RUN_STAGE` | coord → site | stage | yes |
| 9 | `TELEMETRY` | site → coord | spans | **no** — diagnostics |
";

    fn good_ws() -> Workspace {
        let mut ws = Workspace::default();
        ws.add(PROTOCOL_FILE, PROTO.into());
        ws.add(TRANSPORT_FILE, TRANSPORT.into());
        ws.add("crates/core/src/site.rs", SITE.into());
        ws.add("crates/net/src/tcp.rs", TCP.into());
        ws.add(DOC_FILE, DOC.into());
        ws
    }

    #[test]
    fn consistent_registry_passes() {
        let d = protocol_registry(&good_ws());
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn missing_doc_comment_and_duplicate_value_fire() {
        let mut ws = good_ws();
        let proto = "\
/// Run one stage.
pub const TAG_RUN_STAGE: u8 = 1;
pub const TAG_TELEMETRY: u8 = 1;
";
        ws.add(PROTOCOL_FILE, proto.into());
        let d = protocol_registry(&ws);
        assert!(d.iter().any(|d| d.message.contains("no rustdoc")), "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("reuses tag value 1")), "{d:?}");
    }

    #[test]
    fn unhandled_tag_fires() {
        let mut ws = good_ws();
        ws.add("crates/core/src/site.rs", "fn demux(tag: u8) { let _ = tag == TAG_RUN_STAGE; }\n".into());
        let d = protocol_registry(&ws);
        assert!(
            d.iter().any(|d| d.message.contains("TAG_TELEMETRY") && d.message.contains("demux")),
            "{d:?}"
        );
    }

    #[test]
    fn unclassified_record_site_fires() {
        let mut ws = good_ws();
        ws.add(
            "crates/net/src/tcp.rs",
            "fn send(msg: &Msg, stats: &NetStats) {\n    stats.record_msg_for(msg);\n}\n".into(),
        );
        let d = protocol_registry(&ws);
        assert!(d.iter().any(|d| d.message.contains("no tag-classifying guard")), "{d:?}");
        // With no observed exemption, the doc's `no` row now disagrees.
        assert!(d.iter().any(|d| d.message.contains("says tag 9")), "{d:?}");
    }

    #[test]
    fn doc_drift_fires_both_ways() {
        let mut ws = good_ws();
        let doc = "\
## Protocol v2 frame catalog

| Tag | Name | Direction | Payload | Accounted? |
|-----|------|-----------|---------|------------|
| 1 | `RUN_STAGEE` | coord → site | stage | yes |
| 7 | `CATALOG` | site → coord | schema | yes |
";
        ws.add(DOC_FILE, doc.into());
        let d = protocol_registry(&ws);
        assert!(d.iter().any(|d| d.message.contains("RUN_STAGEE")), "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("missing tag 9")), "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("lists tag 7")), "{d:?}");
    }
}
