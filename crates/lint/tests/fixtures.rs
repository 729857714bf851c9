//! UI-style fixture suite: every file under `tests/fixtures/` declares a
//! virtual workspace path (`//@ path: <path>`) and inline expectation
//! markers, and is linted with the shipped rule set. The findings must
//! match the declared set *exactly* — no extras, no misses — so each
//! fixture doubles as a failing or passing example of its rule.
//!
//! A fixture alone is linted with the per-file rules. One that declares
//! other files of its virtual workspace, a line at a time
//! (`//@ other: <path>: <source line>`), is linted with every rule,
//! `unreferenced-pub` judging it against the names those files use.
//!
//! Marker grammar (trailing on any line):
//!
//! ```text
//! //~ deny(<rule>)     an unwaived finding on this line
//! //~ waived(<rule>)   a finding on this line suppressed by a waiver
//! //~^ …               same, but one line up (one line per `^`)
//! ```

use sm_lint::rules::{default_rules, workspace_rules};
use sm_lint::{lint_source, NameIndex};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures"))
}

/// `(line, rule, waived)` triple used for both expected and actual sides.
type Expectation = (u32, String, bool);

/// A fixture's directives: its virtual path, the other files of its
/// virtual workspace (path → source), and its expected findings.
type Directives = (String, BTreeMap<String, String>, Vec<Expectation>);

fn parse_directives(name: &str, src: &str) -> Directives {
    let mut path = None;
    let mut others: BTreeMap<String, String> = BTreeMap::new();
    let mut expected = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let lineno = idx as u32 + 1;
        if let Some(rest) = line.trim().strip_prefix("//@ path:") {
            path = Some(rest.trim().to_string());
        }
        if let Some(rest) = line.trim().strip_prefix("//@ other:") {
            let (other, body) = rest
                .trim()
                .split_once(": ")
                .unwrap_or_else(|| panic!("{name}:{lineno}: `//@ other:` needs `<path>: <line>`"));
            let file = others.entry(other.to_string()).or_default();
            file.push_str(body);
            file.push('\n');
        }
        if let Some(pos) = line.find("//~") {
            let rest = &line[pos + 3..];
            let up = rest.chars().take_while(|&c| c == '^').count();
            let spec = rest[up..].trim();
            let (kind, tail) = spec
                .split_once('(')
                .unwrap_or_else(|| panic!("{name}:{lineno}: marker needs (rule)"));
            let rule = tail.trim_end_matches(')').trim().to_string();
            let waived = match kind.trim() {
                "deny" => false,
                "waived" => true,
                other => panic!("{name}:{lineno}: unknown marker kind `{other}`"),
            };
            let target = lineno
                .checked_sub(up as u32)
                .unwrap_or_else(|| panic!("{name}:{lineno}: marker points above the file"));
            expected.push((target, rule, waived));
        }
    }
    (
        path.unwrap_or_else(|| panic!("{name}: fixture missing `//@ path:` directive")),
        others,
        expected,
    )
}

#[test]
fn fixtures_match_their_expectations() {
    let rules = default_rules();
    let mut failures = Vec::new();
    let mut checked = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(fixtures_dir())
        .expect("tests/fixtures must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    for fixture in entries {
        let name = fixture
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = std::fs::read_to_string(&fixture).expect("readable fixture");
        let (virtual_path, others, mut expected) = parse_directives(&name, &src);
        let report = if others.is_empty() {
            lint_source(&virtual_path, &src, &rules)
        } else {
            let mut index = NameIndex::default();
            index.add(&virtual_path, &src);
            for (path, body) in &others {
                index.add(path, body);
            }
            lint_source(&virtual_path, &src, &workspace_rules(index))
        };
        let mut actual: Vec<Expectation> = report
            .findings
            .iter()
            .map(|f| (f.line, f.rule.to_string(), f.waived))
            .collect();
        expected.sort();
        actual.sort();
        if expected != actual {
            failures.push(format!(
                "{name} (as {virtual_path}):\n  expected: {expected:?}\n  actual:   {actual:?}"
            ));
        }
        checked += 1;
    }
    assert!(
        checked >= 10,
        "fixture suite went missing ({checked} files)"
    );
    assert!(
        failures.is_empty(),
        "fixture expectations diverged:\n{}",
        failures.join("\n")
    );
}

/// Every shipped rule carries at least one failing and one passing
/// fixture, by naming convention — the contract `rules.rs` documents for
/// adding a rule.
#[test]
fn every_rule_has_fail_and_pass_fixtures() {
    let dir = fixtures_dir();
    for rule in sm_lint::RULE_IDS {
        let snake = rule.replace('-', "_");
        for kind in ["fail", "pass"] {
            let p = dir.join(format!("{snake}_{kind}.rs"));
            assert!(
                p.exists(),
                "rule `{rule}` is missing its {kind} fixture at {}",
                p.display()
            );
        }
    }
}

/// The waiver engine's behaviors have dedicated fixtures too (used,
/// unused, malformed) — pinned here so they are not quietly deleted.
#[test]
fn waiver_behavior_fixtures_exist() {
    let dir = fixtures_dir();
    for f in [
        "waivers_used.rs",
        "waiver_unused.rs",
        "waiver_malformed.rs",
        "test_mask.rs",
    ] {
        assert!(dir.join(f).exists(), "missing fixture {f}");
    }
}
