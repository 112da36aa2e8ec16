//! `tracer-lint .` must still report zero violations with `perf/` in the
//! tree, and the bench's own sources must pass the rules that apply to
//! untagged code (lock order, double locks, reasoned `allow` escapes).

use std::path::{Path, PathBuf};
use tracer_lint::{lint_paths, workspace_files};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perf/ has a parent")
}

fn complaints(files: &[PathBuf], check_tags: bool) -> Vec<String> {
    lint_paths(files, check_tags)
        .violations
        .iter()
        .map(|v| format!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message))
        .collect()
}

#[test]
fn the_workspace_is_still_lint_clean() {
    let files = workspace_files(repo_root());
    assert!(files.len() > 50, "workspace walk looks broken: {} files", files.len());
    assert_eq!(complaints(&files, true), Vec::<String>::new());
}

#[test]
fn the_bench_sources_are_lint_clean() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&src)
        .expect("perf/src is readable")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(files.len() >= 8, "{files:?}");
    assert_eq!(complaints(&files, false), Vec::<String>::new());
}
