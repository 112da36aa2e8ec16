//! The invariant rules and the token-stream analysis that enforces them.
//!
//! Rules are deny-by-default inside their scope and silent outside it:
//!
//! * **`determinism`** — active in scopes tagged
//!   `#![doc = "tracer-invariant: deterministic"]`. Bans `HashMap`/`HashSet`
//!   (unordered iteration is the classic report-divergence bug),
//!   `Instant::now`/`SystemTime::now`, `thread::current`/`ThreadId`, and
//!   `env::var*`/`env::args` — none of which may influence DES state,
//!   replay plans, report bytes, or job-log recovery.
//! * **`no-panic-wire`** — active in scopes tagged
//!   `tracer-invariant: no-panic-wire`. Bans `.unwrap()`, `.expect(`,
//!   `panic!`/`unreachable!`/`todo!`/`unimplemented!`, and slice/map
//!   indexing (`x[...]`) on connection- and frame-handling code: a panic
//!   there takes a fleet node down, so these paths must return
//!   `TracerError` (or break out of the frame loop) instead.
//! * **`zero-copy`** — active in scopes tagged
//!   `tracer-invariant: zero-copy`. Bans `.clone()`/`.to_vec()`/
//!   `.to_owned()`/`.to_string()`, `Vec::new`/`with_capacity`/`from`
//!   (likewise `String`, `Box`), and the `vec!`/`format!` macros on the
//!   replay-plan path every replay runs.
//! * **`no-alloc-hot`** — active in scopes tagged
//!   `tracer-invariant: no-alloc-hot`: the same token bans as `zero-copy`,
//!   applied to the per-IO and per-event hot functions (the `ArraySim` event
//!   handlers, each `service_into`, `Geometry::plan_into`, the v3 cursor and
//!   encoder). The tag goes inside a function body, so it covers that
//!   function only; it is the static twin of `tests/alloc_free.rs`.
//! * **`double-lock`** — always active: a `.lock()` on a mutex whose guard
//!   (by field name) is still held in the same function is a deadlock.
//! * **`lock-order`** — always active: if one function in a crate acquires
//!   lock `A` then `B` while `A` is held, and another acquires `B` then
//!   `A`, the pair can deadlock under concurrency; both sites are flagged.
//! * **`bare-allow`** — an escape comment without a `-- reason` is itself a
//!   violation, so every suppression carries its justification in-line.
//! * **`missing-tag`** — files the manifest requires to carry an invariant
//!   tag must still carry it (a refactor cannot silently drop coverage).
//!
//! `#[cfg(test)]` modules are exempt from every rule: tests may unwrap,
//! clone, and time themselves freely.

use crate::scan::{scan, Escape, Tok, TokKind};
use std::collections::BTreeMap;

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule identifier (`determinism`, `no-panic-wire`, ...).
    pub rule: &'static str,
    /// Path label of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the offence.
    pub message: String,
    /// Suggested fix (shown by `--fix-hints`; always present in JSON).
    pub hint: String,
}

/// One *used* `allow` escape, reported so CI can audit every suppression.
#[derive(Debug, Clone)]
pub struct AllowUse {
    /// File the escape lives in.
    pub file: String,
    /// Line of the escape comment.
    pub line: u32,
    /// Rules it suppresses.
    pub rules: Vec<String>,
    /// The justification after `--` (guaranteed by `bare-allow`).
    pub reason: Option<String>,
}

/// Lock-acquisition edge: `held` was held when `acquired` was locked.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Crate the function lives in (lock names are crate-scoped).
    pub krate: String,
    /// Lock held at the acquisition site.
    pub held: String,
    /// Lock being acquired.
    pub acquired: String,
    /// File of the acquisition site.
    pub file: String,
    /// Line of the acquisition site.
    pub line: u32,
    /// Enclosing function, for the diagnostic.
    pub func: String,
}

/// Per-file analysis result; lock edges resolve workspace-wide afterwards.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Violations found in this file (except `lock-order`, which needs the
    /// whole workspace).
    pub violations: Vec<Violation>,
    /// Escapes that suppressed at least one violation.
    pub allows: Vec<AllowUse>,
    /// Lock-order edges for the cross-file pass.
    pub edges: Vec<LockEdge>,
    /// `tracer-invariant:` tags present at file level.
    pub tags: Vec<String>,
    /// Escape comments (kept for suppressing deferred lock-order findings).
    pub escapes: Vec<Escape>,
}

const DETERMINISM: &str = "determinism";
const NO_PANIC: &str = "no-panic-wire";
const ZERO_COPY: &str = "zero-copy";
const NO_ALLOC_HOT: &str = "no-alloc-hot";
const DOUBLE_LOCK: &str = "double-lock";
const LOCK_ORDER: &str = "lock-order";
const BARE_ALLOW: &str = "bare-allow";
const MISSING_TAG: &str = "missing-tag";

/// Every rule id the checker can emit, for `--help` and docs.
pub const ALL_RULES: &[&str] = &[
    DETERMINISM,
    NO_PANIC,
    ZERO_COPY,
    NO_ALLOC_HOT,
    DOUBLE_LOCK,
    LOCK_ORDER,
    BARE_ALLOW,
    MISSING_TAG,
];

/// A held lock guard (real binding or expression-temporary).
struct Guard {
    /// Lock name (the field/variable `.lock()` was called on).
    name: String,
    /// Variable the guard is bound to, when `let`-bound.
    var: Option<String>,
    /// Brace depth the guard was created at (dropped when the scope closes).
    depth: i32,
    /// Expression-temporary guards die at the next `;`.
    transient: bool,
    /// Line of acquisition, for double-lock diagnostics.
    line: u32,
}

/// Crate name for a path label: `crates/<name>/...` → `<name>`, else the
/// file stem (standalone fixture files form their own "crate").
fn crate_of(path: &str) -> String {
    let norm = path.replace('\\', "/");
    if let Some(idx) = norm.find("crates/") {
        let rest = &norm[idx + "crates/".len()..];
        if let Some(slash) = rest.find('/') {
            return rest[..slash].to_string();
        }
    }
    let stem = norm.rsplit('/').next().unwrap_or(&norm);
    stem.strip_suffix(".rs").unwrap_or(stem).to_string()
}

/// Analyze one file's source. `path` is only a label; nothing is read from
/// disk here.
pub fn analyze_file(path: &str, src: &str) -> FileAnalysis {
    let scanned = scan(src);
    let toks = &scanned.toks;
    let krate = crate_of(path);
    let mut fa = FileAnalysis::default();

    // ---- escape bookkeeping ------------------------------------------------
    // An escape on line L covers violations on L and L+1 (same line, or the
    // line directly below the comment).
    let mut escapes_by_line: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (ei, e) in scanned.escapes.iter().enumerate() {
        escapes_by_line.entry(e.line).or_default().push(ei);
        escapes_by_line.entry(e.line + 1).or_default().push(ei);
    }
    let mut escape_used = vec![false; scanned.escapes.len()];
    for e in &scanned.escapes {
        if e.reason.is_none() {
            fa.violations.push(Violation {
                rule: BARE_ALLOW,
                file: path.to_string(),
                line: e.line,
                message: format!("allow({}) escape carries no reason", e.rules.join(", ")),
                hint: "append ` -- <why this is safe>` to the escape comment".to_string(),
            });
        }
    }

    // Emit a violation unless an escape (with any reason state) covers it.
    // Bare allows still suppress — they are already flagged as `bare-allow`,
    // and double-reporting the underlying site would just be noise.
    macro_rules! emit {
        ($rule:expr, $line:expr, $msg:expr, $hint:expr) => {{
            let mut suppressed = false;
            if let Some(ids) = escapes_by_line.get(&$line) {
                for &ei in ids {
                    if scanned.escapes[ei].rules.iter().any(|r| r == $rule) {
                        suppressed = true;
                        escape_used[ei] = true;
                    }
                }
            }
            if !suppressed {
                fa.violations.push(Violation {
                    rule: $rule,
                    file: path.to_string(),
                    line: $line,
                    message: $msg,
                    hint: $hint.to_string(),
                });
            }
        }};
    }

    // ---- the single forward walk ------------------------------------------
    let mut depth: i32 = 0;
    // (depth the tag's scope opened at, tag name)
    let mut tags: Vec<(i32, String)> = Vec::new();
    // Depth of an active `#[cfg(test)] mod` scope; rules pause inside it.
    let mut skip_below: Option<i32> = None;
    let mut pending_cfg_test = false;
    // Function tracking for the lock rules.
    let mut current_fn: Option<String> = None;
    let mut fn_body_depth: Option<i32> = None;
    let mut pending_fn: Option<String> = None;
    let mut guards: Vec<Guard> = Vec::new();
    // `let` statement tracking (to bind guards to variables).
    let mut stmt_let_var: Option<String> = None;
    let mut stmt_seen_let = false;

    let ident_at = |j: usize, name: &str| -> bool {
        toks.get(j).is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
    };
    let punct_at = |j: usize, ch: &str| -> bool {
        toks.get(j).is_some_and(|t| t.kind == TokKind::Punct && t.text == ch)
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let active = skip_below.is_none();

        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => {
                depth += 1;
                if pending_cfg_test {
                    // `#[cfg(test)] mod x {` — everything inside is exempt.
                    skip_below = skip_below.or(Some(depth));
                    pending_cfg_test = false;
                }
                if let Some(name) = pending_fn.take() {
                    current_fn = Some(name);
                    fn_body_depth = Some(depth);
                    guards.clear();
                }
                i += 1;
                continue;
            }
            (TokKind::Punct, "}") => {
                depth -= 1;
                tags.retain(|(d, _)| *d <= depth);
                guards.retain(|g| g.depth <= depth);
                if skip_below.is_some_and(|d| depth < d) {
                    skip_below = None;
                }
                if fn_body_depth.is_some_and(|d| depth < d) {
                    current_fn = None;
                    fn_body_depth = None;
                    guards.clear();
                }
                i += 1;
                continue;
            }
            (TokKind::Punct, ";") => {
                guards.retain(|g| !g.transient);
                stmt_let_var = None;
                stmt_seen_let = false;
                pending_cfg_test = false; // `#[cfg(test)] use x;` — no scope
                pending_fn = None; // trait method declaration without body
                i += 1;
                continue;
            }
            _ => {}
        }

        // `#![doc = "tracer-invariant: X"]` — tag the enclosing scope.
        if t.kind == TokKind::Punct
            && t.text == "#"
            && punct_at(i + 1, "!")
            && punct_at(i + 2, "[")
            && ident_at(i + 3, "doc")
            && punct_at(i + 4, "=")
            && toks.get(i + 5).is_some_and(|s| s.kind == TokKind::Str)
            && punct_at(i + 6, "]")
        {
            let text = toks[i + 5].text.trim().to_string();
            if let Some(tag) = text.strip_prefix("tracer-invariant:") {
                tags.push((depth, tag.trim().to_string()));
                if depth == 0 {
                    fa.tags.push(tag.trim().to_string());
                }
            }
            i += 7;
            continue;
        }

        // `#[cfg(test…)]` — arm the test-module skip.
        if t.kind == TokKind::Punct
            && t.text == "#"
            && punct_at(i + 1, "[")
            && ident_at(i + 2, "cfg")
            && punct_at(i + 3, "(")
        {
            let mut j = i + 4;
            let mut pdepth = 1;
            let mut saw_test = false;
            while j < toks.len() && pdepth > 0 {
                if punct_at(j, "(") {
                    pdepth += 1;
                } else if punct_at(j, ")") {
                    pdepth -= 1;
                } else if ident_at(j, "test") {
                    saw_test = true;
                }
                j += 1;
            }
            if saw_test {
                pending_cfg_test = true;
            }
            i = j;
            continue;
        }

        if !active {
            i += 1;
            continue;
        }

        // Function headers: `fn name`.
        if t.kind == TokKind::Ident && t.text == "fn" {
            if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                pending_fn = Some(name.text.clone());
            }
            i += 1;
            continue;
        }
        if t.kind == TokKind::Ident && t.text == "let" {
            stmt_seen_let = true;
            stmt_let_var = None;
            i += 1;
            continue;
        }
        if stmt_seen_let && stmt_let_var.is_none() && t.kind == TokKind::Ident && t.text != "mut" {
            stmt_let_var = Some(t.text.clone());
        }
        if t.kind == TokKind::Ident && t.text == "drop" && punct_at(i + 1, "(") {
            if let Some(var) = toks.get(i + 2).filter(|v| v.kind == TokKind::Ident) {
                guards.retain(|g| g.var.as_deref() != Some(var.text.as_str()));
            }
        }

        let has = |tag: &str| tags.iter().any(|(_, t)| t == tag);

        // ---- determinism ---------------------------------------------------
        if has("deterministic") && t.kind == TokKind::Ident {
            match t.text.as_str() {
                "HashMap" | "HashSet" => emit!(
                    DETERMINISM,
                    t.line,
                    format!("{} in a deterministic module: iteration order is unstable", t.text),
                    "use BTreeMap/BTreeSet, or collect and sort keys before iterating"
                ),
                "Instant" | "SystemTime"
                    if punct_at(i + 1, ":") && punct_at(i + 2, ":") && ident_at(i + 3, "now") =>
                {
                    emit!(
                        DETERMINISM,
                        t.line,
                        format!("{}::now() in a deterministic module", t.text),
                        "derive time from simulated clocks or take it as a parameter"
                    )
                }
                "thread"
                    if punct_at(i + 1, ":")
                        && punct_at(i + 2, ":")
                        && ident_at(i + 3, "current") =>
                {
                    emit!(
                        DETERMINISM,
                        t.line,
                        "thread::current() in a deterministic module".to_string(),
                        "thread identity must not influence deterministic output"
                    )
                }
                "ThreadId" => emit!(
                    DETERMINISM,
                    t.line,
                    "ThreadId in a deterministic module".to_string(),
                    "thread identity must not influence deterministic output"
                ),
                "env"
                    if punct_at(i + 1, ":")
                        && punct_at(i + 2, ":")
                        && toks.get(i + 3).is_some_and(|n| {
                            n.kind == TokKind::Ident
                                && matches!(n.text.as_str(), "var" | "vars" | "var_os" | "args")
                        }) =>
                {
                    emit!(
                        DETERMINISM,
                        t.line,
                        format!("env::{} read in a deterministic module", toks[i + 3].text),
                        "resolve environment at the CLI boundary and pass the value in"
                    )
                }
                _ => {}
            }
        }

        // ---- no-panic-wire -------------------------------------------------
        if has("no-panic-wire") {
            if t.kind == TokKind::Punct
                && t.text == "."
                && toks.get(i + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident && (n.text == "unwrap" || n.text == "expect")
                })
                && punct_at(i + 2, "(")
            {
                let line = toks[i + 1].line;
                emit!(
                    NO_PANIC,
                    line,
                    format!(".{}() on a wire path can take the node down", toks[i + 1].text),
                    "return a TracerError (or break out of the frame loop) instead of panicking"
                );
            }
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
                && punct_at(i + 1, "!")
            {
                emit!(
                    NO_PANIC,
                    t.line,
                    format!("{}! on a wire path can take the node down", t.text),
                    "return a TracerError instead of panicking"
                );
            }
            if t.kind == TokKind::Punct && t.text == "[" && i > 0 {
                let prev = &toks[i - 1];
                let indexing = matches!(prev.kind, TokKind::Ident)
                    && !matches!(
                        prev.text.as_str(),
                        // keywords that legitimately precede `[`
                        "return" | "in" | "as" | "else" | "match" | "mut" | "ref" | "dyn" | "impl"
                    )
                    || (prev.kind == TokKind::Punct && (prev.text == "]" || prev.text == ")"));
                if indexing {
                    emit!(
                        NO_PANIC,
                        t.line,
                        "indexing without get() on a wire path can panic".to_string(),
                        "use .get(..) / .get_mut(..) and handle the None arm"
                    );
                }
            }
        }

        // ---- zero-copy / no-alloc-hot ---------------------------------------
        let alloc_ban = if has("zero-copy") {
            Some((ZERO_COPY, "on the zero-copy replay path"))
        } else if has("no-alloc-hot") {
            Some((NO_ALLOC_HOT, "in a no-alloc-hot function"))
        } else {
            None
        };
        if let Some((rule, place)) = alloc_ban {
            if t.kind == TokKind::Punct
                && t.text == "."
                && toks.get(i + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident
                        && matches!(n.text.as_str(), "clone" | "to_vec" | "to_owned" | "to_string")
                })
                && punct_at(i + 2, "(")
            {
                let line = toks[i + 1].line;
                emit!(
                    rule,
                    line,
                    format!(".{}() allocates {place}", toks[i + 1].text),
                    "borrow from the source trace; materialization must stay opt-in"
                );
            }
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "Vec" | "String" | "Box")
                && punct_at(i + 1, ":")
                && punct_at(i + 2, ":")
                && toks.get(i + 3).is_some_and(|n| {
                    n.kind == TokKind::Ident
                        && matches!(n.text.as_str(), "new" | "with_capacity" | "from")
                })
            {
                emit!(
                    rule,
                    t.line,
                    format!("{}::{} allocates {place}", t.text, toks[i + 3].text),
                    "yield borrowed slices instead of building owned containers"
                );
            }
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "vec" | "format")
                && punct_at(i + 1, "!")
            {
                emit!(
                    rule,
                    t.line,
                    format!("{}! allocates {place}", t.text),
                    "yield borrowed slices instead of building owned values"
                );
            }
        }

        // ---- lock hygiene --------------------------------------------------
        if current_fn.is_some()
            && t.kind == TokKind::Punct
            && t.text == "."
            && ident_at(i + 1, "lock")
            && punct_at(i + 2, "(")
            && punct_at(i + 3, ")")
        {
            let name = lock_name(toks, i);
            let line = toks[i + 1].line;
            for g in &guards {
                if g.name == name {
                    emit!(
                        DOUBLE_LOCK,
                        line,
                        format!(
                            "`{name}` locked at line {} is still held when `{name}.lock()` runs again",
                            g.line
                        ),
                        "drop the first guard (or reuse it) before locking the same mutex again"
                    );
                } else {
                    fa.edges.push(LockEdge {
                        krate: krate.clone(),
                        held: g.name.clone(),
                        acquired: name.clone(),
                        file: path.to_string(),
                        line,
                        func: current_fn.clone().unwrap_or_default(),
                    });
                }
            }
            // Guard classification: `let g = m.lock();` (optionally through
            // unwrap/expect/unwrap_or_else) binds a scoped guard; a lock
            // consumed by further method calls is an expression temporary.
            let mut j = i + 4; // token after `.lock()`'s closing paren
            loop {
                if punct_at(j, ".")
                    && toks.get(j + 1).is_some_and(|n| {
                        n.kind == TokKind::Ident
                            && matches!(n.text.as_str(), "unwrap" | "expect" | "unwrap_or_else")
                    })
                    && punct_at(j + 2, "(")
                {
                    // Skip the adapter's balanced parens.
                    let mut pd = 1;
                    let mut k = j + 3;
                    while k < toks.len() && pd > 0 {
                        if punct_at(k, "(") {
                            pd += 1;
                        } else if punct_at(k, ")") {
                            pd -= 1;
                        }
                        k += 1;
                    }
                    j = k;
                } else {
                    break;
                }
            }
            let bound = stmt_seen_let && punct_at(j, ";");
            guards.push(Guard {
                name,
                var: if bound { stmt_let_var.clone() } else { None },
                depth,
                transient: !bound,
                line,
            });
            i += 3;
            continue;
        }

        i += 1;
    }

    // Record used escapes (with reasons) for the audit trail.
    for (ei, used) in escape_used.iter().enumerate() {
        if *used {
            let e = &scanned.escapes[ei];
            fa.allows.push(AllowUse {
                file: path.to_string(),
                line: e.line,
                rules: e.rules.clone(),
                reason: e.reason.clone(),
            });
        }
    }
    fa.escapes = scanned.escapes;
    fa
}

/// The lock name for a `.lock()` at token index `i` (the `.`): the
/// identifier directly before the dot, or — when the receiver is a call like
/// `stdin()` — the callee identifier.
fn lock_name(toks: &[Tok], i: usize) -> String {
    if i == 0 {
        return "<unknown>".to_string();
    }
    let prev = &toks[i - 1];
    if prev.kind == TokKind::Ident {
        return prev.text.clone();
    }
    if prev.kind == TokKind::Punct && prev.text == ")" {
        // Walk back over the balanced parens to the callee.
        let mut depth = 1;
        let mut j = i - 1;
        while j > 0 && depth > 0 {
            j -= 1;
            if toks[j].kind == TokKind::Punct && toks[j].text == ")" {
                depth += 1;
            } else if toks[j].kind == TokKind::Punct && toks[j].text == "(" {
                depth -= 1;
            }
        }
        if j > 0 && toks[j - 1].kind == TokKind::Ident {
            return toks[j - 1].text.clone();
        }
    }
    "<unknown>".to_string()
}

/// Resolve cross-function lock-order inversions. For every crate, if edge
/// `A→B` and edge `B→A` both exist, the first site of each direction is
/// flagged (suppressable per-site with an `allow(lock-order)` escape, which
/// is honoured via `escapes_by_file`).
pub fn lock_order_violations(
    edges: &[LockEdge],
    escapes_by_file: &BTreeMap<String, Vec<Escape>>,
) -> Vec<Violation> {
    // (crate, from, to) → first site
    let mut first: BTreeMap<(String, String, String), &LockEdge> = BTreeMap::new();
    for e in edges {
        first.entry((e.krate.clone(), e.held.clone(), e.acquired.clone())).or_insert(e);
    }
    let mut out = Vec::new();
    let mut reported: Vec<(String, String, String)> = Vec::new();
    for ((krate, a, b), edge) in &first {
        if a >= b {
            continue; // each unordered pair once
        }
        let Some(back) = first.get(&(krate.clone(), b.clone(), a.clone())) else { continue };
        if reported.iter().any(|(k, x, y)| k == krate && x == a && y == b) {
            continue;
        }
        reported.push((krate.clone(), a.clone(), b.clone()));
        for (site, held, acq, other) in [(*edge, a, b, *back), (*back, b, a, *edge)] {
            let suppressed = escapes_by_file.get(&site.file).is_some_and(|escs| {
                escs.iter().any(|e| {
                    (e.line == site.line || e.line + 1 == site.line)
                        && e.rules.iter().any(|r| r == LOCK_ORDER)
                })
            });
            if suppressed {
                continue;
            }
            out.push(Violation {
                rule: LOCK_ORDER,
                file: site.file.clone(),
                line: site.line,
                message: format!(
                    "lock order inversion in crate `{krate}`: `{}` acquires `{held}` then \
                     `{acq}`, but `{}` ({}:{}) acquires them in the opposite order",
                    site.func, other.func, other.file, other.line
                ),
                hint: "pick one global order for this lock pair and refactor the minority site"
                    .to_string(),
            });
        }
    }
    out
}

/// Check the required-tag manifest: each `(path suffix, tags)` entry must
/// match exactly one analyzed file carrying all listed tags.
pub fn missing_tag_violations(
    required: &[(&str, &[&str])],
    files: &BTreeMap<String, Vec<String>>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (suffix, tags) in required {
        let found = files.iter().find(|(path, _)| path.replace('\\', "/").ends_with(suffix));
        match found {
            None => out.push(Violation {
                rule: MISSING_TAG,
                file: (*suffix).to_string(),
                line: 1,
                message: format!("manifest file `{suffix}` was not found in the scanned tree"),
                hint: "restore the file or update the required-tags manifest in tracer-lint"
                    .to_string(),
            }),
            Some((path, present)) => {
                for tag in *tags {
                    if !present.iter().any(|t| t == tag) {
                        out.push(Violation {
                            rule: MISSING_TAG,
                            file: path.clone(),
                            line: 1,
                            message: format!(
                                "file must carry `#![doc = \"tracer-invariant: {tag}\"]`"
                            ),
                            hint: "re-add the invariant tag; the rules it scopes are part of \
                                   this file's contract"
                                .to_string(),
                        });
                    }
                }
            }
        }
    }
    out
}
