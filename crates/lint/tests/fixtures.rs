//! Fixture-driven self-tests: every rule must fire on the seeded
//! violations under `fixtures/bad/` and stay silent on the clean mirror
//! under `fixtures/good/` — and the real repository must pass with
//! nothing beyond the frozen panic-hygiene baseline.

use skalla_lint::baseline::Baseline;
use skalla_lint::workspace::Workspace;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> Workspace {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    Workspace::load(&root).expect("fixture tree loads")
}

#[test]
fn every_rule_fires_on_the_bad_fixture() {
    let diags = skalla_lint::run_all(&fixture("bad"));
    for (rule, _) in skalla_lint::rules::ALL_RULES {
        assert!(
            diags.iter().any(|d| d.rule == *rule),
            "rule `{rule}` did not fire on fixtures/bad; diagnostics: {:#?}",
            diags
        );
    }
}

#[test]
fn bad_fixture_findings_are_the_seeded_ones() {
    let diags = skalla_lint::run_all(&fixture("bad"));
    let has = |rule: &str, frag: &str| {
        diags
            .iter()
            .any(|d| d.rule == rule && d.message.contains(frag))
    };
    // protocol-registry: each failure mode seeded once.
    assert!(has("protocol-registry", "no rustdoc"), "{diags:#?}");
    assert!(has("protocol-registry", "reuses tag value 1"), "{diags:#?}");
    assert!(has("protocol-registry", "TAG_GHOST"), "{diags:#?}");
    assert!(has("protocol-registry", "no tag-classifying guard"), "{diags:#?}");
    assert!(has("protocol-registry", "WRONG_NAME"), "{diags:#?}");
    assert!(has("protocol-registry", "lists tag 9"), "{diags:#?}");
    assert!(has("protocol-registry", "missing tag 7"), "{diags:#?}");
    // Determinism and panic hygiene.
    assert!(has("wall-clock", "Instant::now"), "{diags:#?}");
    assert!(has("unordered-iter", "`groups`"), "{diags:#?}");
    assert!(has("panic-hygiene", "`unwrap`"), "{diags:#?}");
}

#[test]
fn good_fixture_is_clean() {
    let diags = skalla_lint::run_all(&fixture("good"));
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn real_repository_passes_with_the_checked_in_baseline() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("repo loads");
    let diags = skalla_lint::run_all(&ws);
    let text = std::fs::read_to_string(root.join("lint-baseline.txt"))
        .expect("lint-baseline.txt is checked in");
    let base = Baseline::parse(&text).expect("baseline parses");
    let filtered = base.filter(&ws, diags);
    assert!(
        filtered.kept.is_empty(),
        "the repository violates its own invariants:\n{}",
        filtered
            .kept
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The baseline freezes only panic-hygiene; everything else is strict
    // (no stale entries hiding behind other rules).
    assert!(
        text.lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .all(|l| l.starts_with("panic-hygiene\t")),
        "baseline must only carry panic-hygiene entries"
    );
}

#[test]
fn fixture_trees_stay_out_of_the_production_walk() {
    // `Workspace::load` of the real repo must skip `fixtures/` — the
    // seeded violations would otherwise fail the real run.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("repo loads");
    assert!(
        ws.iter().all(|(p, _)| !Path::new(p)
            .components()
            .any(|c| c.as_os_str() == "fixtures")),
        "fixture files leaked into the production workspace walk"
    );
}
