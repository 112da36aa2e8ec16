//! The workspace itself must satisfy every invariant: zero violations, and
//! every `allow` escape must carry a reason. This test makes the invariants
//! locally enforced by `cargo test` — CI's `tracer-lint` gate is the same
//! check run through the binary.

use std::path::Path;
use tracer_lint::{lint_paths, workspace_files};

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives at <root>/crates/lint")
}

#[test]
fn the_workspace_is_invariant_clean() {
    let files = workspace_files(workspace_root());
    assert!(files.len() > 50, "workspace walk looks broken: {} files", files.len());
    let report = lint_paths(&files, true);
    assert!(
        report.is_clean(),
        "workspace invariant violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!("  {}:{}: [{}] {}", v.file, v.line, v.rule, v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_allow_escape_carries_a_reason() {
    let files = workspace_files(workspace_root());
    let report = lint_paths(&files, true);
    // Belt and braces: `bare-allow` already fails the clean check above, but
    // the audit list must agree — every *used* escape has a reason.
    for allow in &report.allows {
        assert!(
            allow.reason.as_deref().is_some_and(|r| !r.is_empty()),
            "{}:{} allow({}) has no reason",
            allow.file,
            allow.line,
            allow.rules.join(", ")
        );
    }
    // The two escapes (the job log's crc32 table lookup and its const-fn
    // table builder) are audited; new ones must be deliberate.
    assert!(report.allows.len() >= 2, "expected the documented escapes: {:?}", report.allows);
}

#[test]
fn required_tags_are_enforced_on_the_walk() {
    // The manifest in `tracer_lint::REQUIRED_TAGS` must resolve against the
    // real tree — a rename that orphans an entry should fail here, not rot.
    let files = workspace_files(workspace_root());
    for (suffix, _) in tracer_lint::REQUIRED_TAGS {
        assert!(
            files.iter().any(|f| f.to_string_lossy().replace('\\', "/").ends_with(suffix)),
            "required-tags manifest entry `{suffix}` matches no workspace file"
        );
    }
}
