//! `tracer-lint` — TRACER's workspace invariant checker.
//!
//! The sweep-report determinism guarantee ("byte-identical to the serial
//! baseline at any worker count, node count, or crash point") is a *source*
//! property as much as a runtime one. This crate enforces it statically: a
//! hand-rolled token scanner (`scan`) feeds a rule engine (`rules`) that
//! checks deny-by-default invariants inside tagged scopes, plus
//! workspace-wide lock hygiene. See `rules::ALL_RULES` for the catalog and
//! DESIGN.md §12 for policy.

pub mod rules;
pub mod scan;

use rules::{analyze_file, lock_order_violations, missing_tag_violations, AllowUse, Violation};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Files that must carry invariant tags, as `(path suffix, required tags)`.
/// Dropping a tag in a refactor is itself a violation (`missing-tag`).
pub const REQUIRED_TAGS: &[(&str, &[&str])] = &[
    ("crates/sim/src/array.rs", &["deterministic"]),
    ("crates/sim/src/device.rs", &["deterministic"]),
    ("crates/sim/src/hdd.rs", &["deterministic"]),
    ("crates/sim/src/ssd.rs", &["deterministic"]),
    ("crates/sim/src/equeue.rs", &["deterministic"]),
    ("crates/sim/src/soa.rs", &["deterministic"]),
    ("crates/sim/src/stripe.rs", &["deterministic"]),
    ("crates/sim/src/raid.rs", &["deterministic"]),
    ("crates/sim/src/nvme.rs", &["deterministic"]),
    ("crates/sim/src/tier.rs", &["deterministic"]),
    ("crates/sim/src/power.rs", &["deterministic"]),
    ("crates/sim/src/spec.rs", &["deterministic"]),
    ("crates/sim/src/powerlog.rs", &["deterministic"]),
    ("crates/power/src/analyzer.rs", &["deterministic"]),
    ("crates/power/src/meter.rs", &["deterministic"]),
    ("crates/replay/src/monitor.rs", &["deterministic"]),
    ("crates/replay/src/engine.rs", &["deterministic"]),
    ("crates/core/src/scenario.rs", &["deterministic"]),
    ("crates/replay/src/plan.rs", &["deterministic", "zero-copy"]),
    ("crates/trace/src/v3.rs", &["deterministic"]),
    ("crates/trace/src/mmap.rs", &["deterministic"]),
    ("crates/trace/src/ingest.rs", &["deterministic"]),
    ("crates/core/src/report.rs", &["deterministic"]),
    ("crates/fabric/src/joblog.rs", &["deterministic", "no-panic-wire"]),
    ("crates/serve/src/server.rs", &["no-panic-wire"]),
    ("crates/core/src/net.rs", &["no-panic-wire"]),
];

/// Aggregated result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Every suppression that actually fired, for audit.
    pub allows: Vec<AllowUse>,
    /// Number of files analyzed.
    pub files_scanned: usize,
}

impl Report {
    /// True when the workspace satisfies every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lint a set of `(path label, source)` pairs. `check_tags` additionally
/// enforces the [`REQUIRED_TAGS`] manifest (used for workspace runs, not for
/// ad-hoc file arguments or fixtures).
pub fn lint_sources(sources: &[(String, String)], check_tags: bool) -> Report {
    let mut report = Report { files_scanned: sources.len(), ..Report::default() };
    let mut edges = Vec::new();
    let mut escapes_by_file = BTreeMap::new();
    let mut tags_by_file = BTreeMap::new();
    for (path, src) in sources {
        let fa = analyze_file(path, src);
        report.violations.extend(fa.violations);
        report.allows.extend(fa.allows);
        edges.extend(fa.edges);
        escapes_by_file.insert(path.clone(), fa.escapes);
        tags_by_file.insert(path.clone(), fa.tags);
    }
    report.violations.extend(lock_order_violations(&edges, &escapes_by_file));
    if check_tags {
        report.violations.extend(missing_tag_violations(REQUIRED_TAGS, &tags_by_file));
    }
    report.violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.allows.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Lint files on disk. Unreadable or non-UTF-8 files are reported as
/// violations rather than silently skipped.
pub fn lint_paths(paths: &[PathBuf], check_tags: bool) -> Report {
    let mut sources = Vec::new();
    let mut io_violations = Vec::new();
    for p in paths {
        let label = p.display().to_string();
        match std::fs::read_to_string(p) {
            Ok(src) => sources.push((label, src)),
            Err(err) => io_violations.push(Violation {
                rule: "io",
                file: label,
                line: 0,
                message: format!("cannot read file: {err}"),
                hint: "tracer-lint must be able to read every source it is asked to check"
                    .to_string(),
            }),
        }
    }
    let mut report = lint_sources(&sources, check_tags);
    report.violations.extend(io_violations);
    report
}

/// All first-party `.rs` sources under `root`: `crates/*/src/**/*.rs` and
/// `crates/*/tests/*.rs` (top level only, so lint fixtures under
/// `tests/fixtures/` stay out of the default walk), sorted for stable output.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates) else { return out };
    let mut crate_dirs: Vec<PathBuf> =
        entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), true, &mut out);
        collect_rs(&dir.join("tests"), false, &mut out);
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, recurse: bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            if recurse {
                collect_rs(&p, true, out);
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a report as JSON (hand-rolled, like the rest of the workspace —
/// no serde in the dependency tree).
pub fn to_json(report: &Report) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    s.push_str(&format!("  \"clean\": {},\n", report.is_clean()));
    s.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \
             \"hint\": \"{}\"}}",
            v.rule,
            json_escape(&v.file),
            v.line,
            json_escape(&v.message),
            json_escape(&v.hint)
        ));
    }
    if !report.violations.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"allows\": [");
    for (i, a) in report.allows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let rules: Vec<String> =
            a.rules.iter().map(|r| format!("\"{}\"", json_escape(r))).collect();
        let reason = match &a.reason {
            Some(r) => format!("\"{}\"", json_escape(r)),
            None => "null".to_string(),
        };
        s.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rules\": [{}], \"reason\": {}}}",
            json_escape(&a.file),
            a.line,
            rules.join(", "),
            reason
        ));
    }
    if !report.allows.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_rule_fires_inside_tagged_scope_only() {
        let src = r#"
#![doc = "tracer-invariant: deterministic"]
use std::collections::HashMap;
"#;
        let report = lint_sources(&[("a.rs".to_string(), src.to_string())], false);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "determinism");

        let untagged = "use std::collections::HashMap;\n";
        let report = lint_sources(&[("b.rs".to_string(), untagged.to_string())], false);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn allow_escape_suppresses_and_is_audited() {
        let src = r#"
#![doc = "tracer-invariant: deterministic"]
// tracer-lint: allow(determinism) -- keyed by opaque ids, drained via sorted keys
use std::collections::HashMap;
"#;
        let report = lint_sources(&[("a.rs".to_string(), src.to_string())], false);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.allows.len(), 1);
        assert_eq!(
            report.allows[0].reason.as_deref(),
            Some("keyed by opaque ids, drained via sorted keys")
        );
    }

    #[test]
    fn bare_allow_is_a_violation_but_still_suppresses() {
        let src = r#"
#![doc = "tracer-invariant: deterministic"]
// tracer-lint: allow(determinism)
use std::collections::HashMap;
"#;
        let report = lint_sources(&[("a.rs".to_string(), src.to_string())], false);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "bare-allow");
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = r#"
#![doc = "tracer-invariant: no-panic-wire"]
fn wire(x: Option<u8>) -> u8 { x.unwrap_or(0) }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1u8).unwrap(); }
}
"#;
        let report = lint_sources(&[("a.rs".to_string(), src.to_string())], false);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn json_shape_is_stable() {
        let src = r#"
#![doc = "tracer-invariant: zero-copy"]
fn f() -> Vec<u8> { Vec::new() }
"#;
        let report = lint_sources(&[("a.rs".to_string(), src.to_string())], false);
        let json = to_json(&report);
        assert!(json.contains("\"rule\": \"zero-copy\""));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"files_scanned\": 1"));
    }
}
