//! Every rule must fire on its failing fixture, stay silent on the passing
//! one, and honour a justified `allow` escape. Fixtures are linted through
//! the library API and (for the JSON contract) through the real
//! `tracer-lint --json` binary.

use std::path::{Path, PathBuf};
use std::process::Command;
use tracer_lint::{lint_paths, to_json, Report};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn lint_fixture(name: &str) -> Report {
    lint_paths(&[fixture(name)], false)
}

fn rules_of(report: &Report) -> Vec<&'static str> {
    report.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn determinism_fail_fixture_fires_for_every_ban() {
    let report = lint_fixture("determinism_fail.rs");
    let rules = rules_of(&report);
    assert!(rules.iter().all(|r| *r == "determinism"), "{rules:?}");
    // HashMap (use + init), HashSet (use + init), Instant::now,
    // SystemTime::now, thread::current, env::var.
    assert!(rules.len() >= 6, "expected all determinism bans to fire: {:?}", report.violations);
    let messages: Vec<&str> = report.violations.iter().map(|v| v.message.as_str()).collect();
    for needle in
        ["HashMap", "HashSet", "Instant::now", "SystemTime::now", "thread::current", "env::var"]
    {
        assert!(messages.iter().any(|m| m.contains(needle)), "missing {needle}: {messages:?}");
    }
}

#[test]
fn determinism_pass_fixture_is_clean() {
    let report = lint_fixture("determinism_pass.rs");
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn determinism_allow_fixture_is_clean_with_an_audited_escape() {
    let report = lint_fixture("determinism_allow.rs");
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(report.allows.len(), 1);
    let allow = &report.allows[0];
    assert_eq!(allow.rules, vec!["determinism".to_string()]);
    assert!(allow.reason.as_deref().is_some_and(|r| r.contains("sorts them first")));
}

#[test]
fn no_panic_fail_fixture_fires_for_every_ban() {
    let report = lint_fixture("no_panic_fail.rs");
    let rules = rules_of(&report);
    assert!(rules.iter().all(|r| *r == "no-panic-wire"), "{rules:?}");
    let messages: Vec<&str> = report.violations.iter().map(|v| v.message.as_str()).collect();
    for needle in ["indexing", ".unwrap()", ".expect()", "panic!", "unreachable!"] {
        assert!(messages.iter().any(|m| m.contains(needle)), "missing {needle}: {messages:?}");
    }
}

#[test]
fn no_panic_pass_fixture_is_clean() {
    let report = lint_fixture("no_panic_pass.rs");
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn zero_copy_fail_fixture_fires_for_every_ban() {
    let report = lint_fixture("zero_copy_fail.rs");
    let rules = rules_of(&report);
    assert!(rules.iter().all(|r| *r == "zero-copy"), "{rules:?}");
    let messages: Vec<&str> = report.violations.iter().map(|v| v.message.as_str()).collect();
    for needle in [".to_vec()", ".to_string()", "Vec::new", "vec!", "format!", ".clone()"] {
        assert!(messages.iter().any(|m| m.contains(needle)), "missing {needle}: {messages:?}");
    }
}

#[test]
fn no_alloc_hot_fail_fixture_fires_inside_the_tagged_function_only() {
    let report = lint_fixture("no_alloc_hot_fail.rs");
    let rules = rules_of(&report);
    assert!(rules.iter().all(|r| *r == "no-alloc-hot"), "{rules:?}");
    let messages: Vec<&str> = report.violations.iter().map(|v| v.message.as_str()).collect();
    for needle in [".to_vec()", ".to_string()", "Vec::new", "vec!", "format!", ".clone()"] {
        assert!(messages.iter().any(|m| m.contains(needle)), "missing {needle}: {messages:?}");
    }
    // `cold_setup` (line 16 on) makes the same calls untagged.
    assert!(report.violations.iter().all(|v| v.line < 16), "{:?}", report.violations);
}

#[test]
fn zero_copy_allow_fixture_is_clean_with_an_audited_escape() {
    let report = lint_fixture("zero_copy_allow.rs");
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(report.allows.len(), 1);
}

#[test]
fn double_lock_fixture_fires() {
    let report = lint_fixture("double_lock_fail.rs");
    assert_eq!(rules_of(&report), vec!["double-lock"], "{:?}", report.violations);
    assert!(report.violations[0].message.contains("jobs"));
}

#[test]
fn lock_order_fixture_flags_both_sites() {
    let report = lint_fixture("lock_order_fail.rs");
    let rules = rules_of(&report);
    assert_eq!(rules, vec!["lock-order", "lock-order"], "{:?}", report.violations);
    let messages: Vec<&str> = report.violations.iter().map(|v| v.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("forward")));
    assert!(messages.iter().any(|m| m.contains("backward")));
}

#[test]
fn lock_pass_fixture_is_clean() {
    let report = lint_fixture("lock_pass.rs");
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn bare_allow_fixture_fires_exactly_once() {
    let report = lint_fixture("bare_allow_fail.rs");
    assert_eq!(rules_of(&report), vec!["bare-allow"], "{:?}", report.violations);
    // The underlying determinism hit stays suppressed — the defect reported
    // is the missing reason, not the HashMap.
    assert!(report.violations[0].message.contains("no reason"));
}

#[test]
fn untagged_fixture_is_clean() {
    let report = lint_fixture("untagged_pass.rs");
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn json_output_via_the_real_binary() {
    let out = Command::new(env!("CARGO_BIN_EXE_tracer-lint"))
        .arg("--json")
        .arg(fixture("determinism_fail.rs"))
        .arg(fixture("zero_copy_allow.rs"))
        .output()
        .expect("run tracer-lint");
    assert!(!out.status.success(), "violations must exit non-zero");
    let json = String::from_utf8(out.stdout).expect("utf8 json");
    assert!(json.contains("\"clean\": false"), "{json}");
    assert!(json.contains("\"rule\": \"determinism\""), "{json}");
    assert!(json.contains("\"files_scanned\": 2"), "{json}");
    assert!(json.contains("opt-in materialization"), "allow audit missing: {json}");
}

#[test]
fn clean_files_exit_zero_via_the_real_binary() {
    let out = Command::new(env!("CARGO_BIN_EXE_tracer-lint"))
        .arg("--json")
        .arg(fixture("determinism_pass.rs"))
        .output()
        .expect("run tracer-lint");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let json = String::from_utf8(out.stdout).expect("utf8 json");
    assert!(json.contains("\"clean\": true"), "{json}");
}

#[test]
fn fix_hints_mode_prints_hints() {
    let out = Command::new(env!("CARGO_BIN_EXE_tracer-lint"))
        .arg("--fix-hints")
        .arg(fixture("determinism_fail.rs"))
        .output()
        .expect("run tracer-lint");
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("hint: use BTreeMap/BTreeSet"), "{text}");
}

#[test]
fn json_report_shape_matches_library_rendering() {
    let report = lint_fixture("double_lock_fail.rs");
    let json = to_json(&report);
    assert!(json.contains("\"rule\": \"double-lock\""));
    assert!(json.contains("\"hint\": \""));
    assert!(json.contains("\"line\": "));
}
