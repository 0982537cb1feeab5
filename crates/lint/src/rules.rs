//! The rule engine: R1–R5 over the token stream of one file.
//!
//! Rule catalogue (see DESIGN.md §8 for rationale):
//!
//! * **R1** — every `unsafe` keyword (block, fn, impl) must be immediately
//!   preceded by a comment containing `SAFETY` or a `# Safety` doc section.
//!   `unsafe` appearing inside a function-pointer *type* (`unsafe fn(...)`
//!   after `:`, `=`, `(`, `,`, `<`, `&`, `|`, `>`) is not a site.
//! * **R2** — every `get_unchecked` / `get_unchecked_mut` call needs a
//!   bounds justification: an `assert!`/`debug_assert!` family macro inside
//!   the enclosing function body, or a nearby `SAFETY` comment.
//! * **R3** — panic-freedom on the service tier: no `.unwrap()`,
//!   `.expect()`, `panic!`-family macros, or indexing by integer literal in
//!   `crates/serve/src` or `crates/traversal/src` (tests exempt).
//! * **R4** — determinism: no `HashMap`/`HashSet` in wire-output files
//!   (`endpoint.rs`, `json.rs`, `proto.rs`, `server.rs`, `stats.rs` under
//!   serve); no `Instant::now`/`SystemTime::now` outside `stats.rs`, bench
//!   code, and `crates/trace` (the tracing layer owns the workspace's
//!   monotonic clock; everything else should take timestamps through it).
//! * **R5** — no raw `thread::spawn`/`thread::Builder` outside
//!   `crates/parallel` and the serve tier (`crates/serve`,
//!   `crates/router`): parallelism goes through the `ihtl-parallel`
//!   runtime so worker indices stay stable.
//! * **R6** — lock-order discipline (cross-file; implemented in
//!   [`crate::concurrency`], findings merged here before suppression):
//!   every observed lock-acquisition edge must be declared in `LOCKS.md`,
//!   the observed graph must be acyclic, and no lock may be held across a
//!   blocking operation (`Condvar::wait`, channel `recv`, socket I/O,
//!   `BlockStore` I/O) without a reasoned suppression.
//! * **R7** — atomic-ordering audit: every `Ordering::Relaxed`/`Acquire`/
//!   `Release`/`AcqRel`/`SeqCst` site must carry an `// ORDERING:`
//!   justification comment, symmetric to R1's SAFETY audit. The documented
//!   seqlock in `crates/trace/src/ring.rs` is exempt as a module, as are
//!   tests/driver files.
//!
//! Suppression findings: **S1** (malformed or reason-less suppression
//! comment) and **S2** (suppression that matched nothing). Neither is
//! itself suppressible.

use crate::lexer::{lex, Comment, Lexed, Tok, Token};

/// Rule identifiers accepted inside a suppression comment.
pub const KNOWN_RULES: [&str; 7] = ["R1", "R2", "R3", "R4", "R5", "R6", "R7"];

/// One diagnostic, reported as `file:line:rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

/// A suppression that was matched by at least one finding.
#[derive(Debug, Clone)]
pub struct UsedSuppression {
    pub line: usize,
    pub rule: &'static str,
    pub reason: String,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    /// Findings silenced by a reasoned `lint:allow` (kept for lint.json:
    /// suppressed findings are data, not noise).
    pub suppressed: Vec<Finding>,
    pub suppressions: Vec<UsedSuppression>,
}

/// What the file's path says about which rules apply. Derived once per file
/// by [`classify`]; fixtures exercise rules by faking the path.
#[derive(Debug, Clone, Copy)]
struct Class {
    /// R3 scope: serve or traversal non-test sources.
    panic_free: bool,
    /// R4a scope: serve files feeding wire output or checksums.
    wire: bool,
    /// R4b exemption: bench crate, `stats.rs`, driver code.
    timers_ok: bool,
    /// R5 exemption: the runtime itself, the serve tier, driver code.
    spawn_ok: bool,
    /// R7 exemption: driver code and the documented trace seqlock module.
    ordering_exempt: bool,
}

/// Driver code (tests, benches, examples, fixtures) is exempt from the
/// scoped rules and from the R6 concurrency pass: lock discipline there is
/// the test's business, not the service tier's.
pub(crate) fn is_driver_path(rel_path: &str) -> bool {
    rel_path
        .replace('\\', "/")
        .split('/')
        .any(|part| matches!(part, "tests" | "benches" | "examples" | "fixtures"))
}

fn classify(rel_path: &str) -> Class {
    let p = rel_path.replace('\\', "/");
    let driver = is_driver_path(&p);
    let file = p.rsplit('/').next().unwrap_or("");
    let serve_src = p.starts_with("crates/serve/src/");
    let traversal_src = p.starts_with("crates/traversal/src/");
    Class {
        panic_free: (serve_src || traversal_src) && !driver,
        wire: serve_src
            && matches!(file, "endpoint.rs" | "json.rs" | "proto.rs" | "server.rs" | "stats.rs"),
        timers_ok: driver
            || p.starts_with("crates/bench/")
            || p.starts_with("crates/trace/")
            || file == "stats.rs",
        spawn_ok: driver
            || p.starts_with("crates/parallel/")
            || p.starts_with("crates/serve/")
            || p.starts_with("crates/router/"),
        // ring.rs is the one module whose orderings are documented as a
        // system (the per-slot seqlock protocol) rather than site by site.
        ordering_exempt: driver || p == "crates/trace/src/ring.rs",
    }
}

/// A parsed `lint:allow(<rules>): <reason>` comment.
struct Suppression {
    rules: Vec<String>,
    /// Inclusive line range the suppression covers: its own comment span
    /// plus the next line (so it can sit above the flagged statement or
    /// trail it on the same line).
    first_line: usize,
    last_line: usize,
    reason: String,
    used: bool,
}

/// Lints one file given its workspace-relative path and source text.
/// Single-file entry point: runs every per-file rule (R1–R5, R7) and the
/// suppression pass, but not the cross-file R6 analysis (that needs the
/// whole workspace; see [`crate::lint_workspace`] / [`crate::check_sources`]).
pub fn check_file(rel_path: &str, src: &str) -> FileReport {
    let lx = lex(src);
    let raw = raw_findings(rel_path, &lx);
    finalize(&lx, raw)
}

/// All per-file raw findings (before suppression). Cross-file passes append
/// their findings to this list so one suppression mechanism covers every
/// rule.
pub fn raw_findings(rel_path: &str, lx: &Lexed) -> Vec<Finding> {
    let class = classify(rel_path);
    let n_lines = lx.lines.len();

    // Per-line indexes used by the marker-proximity scans (R1/R2/R7).
    let mut has_code = vec![false; n_lines + 2];
    for t in &lx.tokens {
        if t.line < has_code.len() {
            has_code[t.line] = true;
        }
    }
    let mut comment_on_line: Vec<Option<usize>> = vec![None; n_lines + 2];
    for (ci, c) in lx.comments.iter().enumerate() {
        let span = c.first_line..=c.last_line.min(n_lines + 1);
        for slot in &mut comment_on_line[span] {
            *slot = Some(ci);
        }
    }

    let scopes = brace_scopes(&lx.tokens);
    let test_ranges = cfg_test_ranges(&lx.tokens);
    let in_test = |line: usize| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);

    let mut raw: Vec<Finding> = Vec::new();
    run_unsafe_rules(lx, &scopes, &comment_on_line, &has_code, &mut raw);
    run_scoped_rules(lx, class, &in_test, &mut raw);
    run_ordering_rule(lx, class, &in_test, &comment_on_line, &has_code, &mut raw);
    raw
}

/// Applies this file's suppressions to `raw` (which may include cross-file
/// findings attributed to this file) and reports suppression misuse.
pub fn finalize(lx: &Lexed, raw: Vec<Finding>) -> FileReport {
    let mut findings: Vec<Finding> = Vec::new();
    let mut sups: Vec<Suppression> = Vec::new();
    for c in &lx.comments {
        parse_suppression(c, &mut sups, &mut findings);
    }
    let mut report = FileReport::default();
    for f in raw {
        let mut suppressed = false;
        for s in sups.iter_mut() {
            if f.line >= s.first_line
                && f.line <= s.last_line
                && s.rules.iter().any(|r| r == f.rule)
            {
                s.used = true;
                report.suppressions.push(UsedSuppression {
                    line: f.line,
                    rule: f.rule,
                    reason: s.reason.clone(),
                });
                report.suppressed.push(f.clone());
                suppressed = true;
                break;
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }
    for s in &sups {
        if !s.used {
            findings.push(Finding {
                line: s.first_line,
                rule: "S2",
                msg: format!("unused suppression for {}", s.rules.join(", ")),
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    report.findings = findings;
    report
}

// ---------------------------------------------------------------------------
// R1 + R2: the unsafe audit
// ---------------------------------------------------------------------------

fn run_unsafe_rules(
    lx: &Lexed,
    scopes: &[Scope],
    comment_on_line: &[Option<usize>],
    has_code: &[bool],
    out: &mut Vec<Finding>,
) {
    let toks = &lx.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.kind else { continue };
        match name.as_str() {
            "unsafe" => {
                if is_fn_pointer_type(toks, i) {
                    continue;
                }
                if !has_marker_near(lx, comment_on_line, has_code, t.line, &["SAFETY", "# Safety"])
                {
                    out.push(Finding {
                        line: t.line,
                        rule: "R1",
                        msg: "`unsafe` without an immediately-preceding `// SAFETY:` comment \
                              stating the invariant and where it is established"
                            .to_string(),
                    });
                }
            }
            "get_unchecked" | "get_unchecked_mut" => {
                let justified =
                    has_marker_near(lx, comment_on_line, has_code, t.line, &["SAFETY", "# Safety"])
                        || fn_scope_has_assert(toks, scopes, i);
                if !justified {
                    out.push(Finding {
                        line: t.line,
                        rule: "R2",
                        msg: format!(
                            "`{name}` without a `debug_assert!` in the enclosing function \
                             or a nearby `// SAFETY:` comment naming the validated invariant"
                        ),
                    });
                }
            }
            _ => {}
        }
    }
}

/// `unsafe` in type position: `unsafe fn(...)` after a token that can only
/// start a type, not an item (`: = ( , < & | >`).
fn is_fn_pointer_type(toks: &[Token], i: usize) -> bool {
    let next_is_fn = matches!(toks.get(i + 1), Some(t) if t.kind == Tok::Ident("fn".into()));
    if !next_is_fn || i == 0 {
        return false;
    }
    matches!(
        toks[i - 1].kind,
        Tok::Punct(':')
            | Tok::Punct('=')
            | Tok::Punct('(')
            | Tok::Punct(',')
            | Tok::Punct('<')
            | Tok::Punct('&')
            | Tok::Punct('|')
            | Tok::Punct('>')
    )
}

/// Walks upward from `line` looking for a comment containing one of the
/// `markers` (`SAFETY`/`# Safety` for R1/R2, `ORDERING:` for R7).
/// Attribute lines are skipped freely; up to two plain code lines are
/// tolerated (e.g. the `let x =` head of a binding and the `fn` signature
/// under a doc comment); a blank line ends the search.
fn has_marker_near(
    lx: &Lexed,
    comment_on_line: &[Option<usize>],
    has_code: &[bool],
    line: usize,
    markers: &[&str],
) -> bool {
    let comment_has_marker = |l: usize| -> bool {
        comment_on_line
            .get(l)
            .copied()
            .flatten()
            .map(|ci| {
                let text = &lx.comments[ci].text;
                markers.iter().any(|m| text.contains(m))
            })
            .unwrap_or(false)
    };
    if comment_has_marker(line) {
        return true; // trailing comment on the same line
    }
    let mut budget = 2usize;
    let mut l = line;
    while l > 1 {
        l -= 1;
        if comment_has_marker(l) {
            return true;
        }
        let raw = lx.lines.get(l - 1).map(String::as_str).unwrap_or("");
        let trimmed = raw.trim();
        if comment_on_line.get(l).copied().flatten().is_some()
            && !has_code.get(l).copied().unwrap_or(false)
        {
            continue; // pure comment line without SAFETY: keep scanning
        }
        if trimmed.is_empty() {
            return false;
        }
        if trimmed.starts_with("#[") || trimmed.starts_with("#!") {
            continue; // attributes sit between docs and items
        }
        if budget == 0 {
            return false;
        }
        budget -= 1;
    }
    false
}

/// A matched brace pair over token indices.
struct Scope {
    open: usize,
    close: usize,
    fn_body: bool,
}

fn brace_scopes(toks: &[Token]) -> Vec<Scope> {
    let mut stack: Vec<usize> = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            Tok::Punct('{') => stack.push(i),
            Tok::Punct('}') => {
                if let Some(open) = stack.pop() {
                    scopes.push(Scope { open, close: i, fn_body: opens_fn_body(toks, open) });
                }
            }
            _ => {}
        }
    }
    scopes
}

/// Does the `{` at token index `open` start a function body? Scan backwards
/// through the signature (stopping at the previous `;`/`{`/`}`) for `fn`.
fn opens_fn_body(toks: &[Token], open: usize) -> bool {
    let lo = open.saturating_sub(200);
    for j in (lo..open).rev() {
        match &toks[j].kind {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => return false,
            Tok::Ident(s) if s == "fn" => return true,
            _ => {}
        }
    }
    false
}

/// Is there an `assert!`-family macro inside the innermost *function body*
/// enclosing token `i`?
fn fn_scope_has_assert(toks: &[Token], scopes: &[Scope], i: usize) -> bool {
    let mut best: Option<&Scope> = None;
    for s in scopes {
        if s.fn_body && s.open < i && i < s.close {
            match best {
                Some(b) if b.open >= s.open => {}
                _ => best = Some(s),
            }
        }
    }
    let Some(s) = best else { return false };
    toks[s.open..s.close].windows(2).any(|w| {
        matches!(
            (&w[0].kind, &w[1].kind),
            (Tok::Ident(name), Tok::Punct('!'))
                if name == "assert"
                    || name.starts_with("assert_")
                    || name.starts_with("debug_assert")
        )
    })
}

// ---------------------------------------------------------------------------
// R3–R5: path-scoped token patterns
// ---------------------------------------------------------------------------

fn run_scoped_rules(
    lx: &Lexed,
    class: Class,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    let toks = &lx.tokens;
    let ident = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.kind) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct =
        |i: usize, c: char| matches!(toks.get(i).map(|t| &t.kind), Some(Tok::Punct(p)) if *p == c);

    for (i, t) in toks.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        // R3: panic-freedom on the service tier.
        if class.panic_free {
            if let Some(name @ ("unwrap" | "expect")) = ident(i) {
                if i > 0 && punct(i - 1, '.') && punct(i + 1, '(') {
                    out.push(Finding {
                        line: t.line,
                        rule: "R3",
                        msg: format!(
                            "`.{name}()` on the panic-free service path — return a protocol \
                             error (or recover the poisoned lock) instead"
                        ),
                    });
                }
            }
            if let Some(name @ ("panic" | "unreachable" | "todo" | "unimplemented")) = ident(i) {
                if punct(i + 1, '!') {
                    out.push(Finding {
                        line: t.line,
                        rule: "R3",
                        msg: format!(
                            "`{name}!` on the panic-free service path — make the state \
                             unrepresentable or return an error"
                        ),
                    });
                }
            }
            if punct(i, '[')
                && matches!(toks.get(i + 1).map(|t| &t.kind), Some(Tok::Int))
                && punct(i + 2, ']')
                && i > 0
                && matches!(toks[i - 1].kind, Tok::Ident(_) | Tok::Punct(')') | Tok::Punct(']'))
            {
                out.push(Finding {
                    line: t.line,
                    rule: "R3",
                    msg: "indexing with an integer literal can panic — pattern-match or use \
                          `.get()`"
                        .to_string(),
                });
            }
        }
        // R4a: unordered collections in wire-output files.
        if class.wire {
            if let Some(name @ ("HashMap" | "HashSet")) = ident(i) {
                out.push(Finding {
                    line: t.line,
                    rule: "R4",
                    msg: format!(
                        "`{name}` in a wire-output file — iteration order would leak into \
                         responses/checksums; use an ordered structure"
                    ),
                });
            }
        }
        // R4b: wall-clock reads outside stats/bench code.
        if !class.timers_ok {
            if let Some(name @ ("Instant" | "SystemTime")) = ident(i) {
                if punct(i + 1, ':') && punct(i + 2, ':') && ident(i + 3) == Some("now") {
                    out.push(Finding {
                        line: t.line,
                        rule: "R4",
                        msg: format!(
                            "`{name}::now()` outside stats.rs/bench code — wall-clock reads \
                             in kernels break run-to-run determinism"
                        ),
                    });
                }
            }
        }
        // R5: thread spawning outside the runtime and the serve tier.
        if !class.spawn_ok
            && ident(i) == Some("thread")
            && punct(i + 1, ':')
            && punct(i + 2, ':')
            && matches!(ident(i + 3), Some("spawn" | "Builder"))
        {
            out.push(Finding {
                line: t.line,
                rule: "R5",
                msg: "raw thread spawn outside crates/parallel and the serve tier \
                      (crates/serve, crates/router) — use the ihtl-parallel runtime so \
                      worker indices stay stable"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R7: atomic-ordering audit
// ---------------------------------------------------------------------------

/// The five memory orderings; `cmp::Ordering`'s variants never collide.
const MEMORY_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Flags every `Ordering::<memory ordering>` token sequence that has no
/// `ORDERING:` comment in marker proximity. One finding per line: clustered
/// counter updates justify themselves with one shared comment.
fn run_ordering_rule(
    lx: &Lexed,
    class: Class,
    in_test: &dyn Fn(usize) -> bool,
    comment_on_line: &[Option<usize>],
    has_code: &[bool],
    out: &mut Vec<Finding>,
) {
    if class.ordering_exempt {
        return;
    }
    let toks = &lx.tokens;
    let mut last_flagged_line = 0usize;
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.kind else { continue };
        if name != "Ordering" || in_test(t.line) || t.line == last_flagged_line {
            continue;
        }
        let is_site = matches!(toks.get(i + 1).map(|t| &t.kind), Some(Tok::Punct(':')))
            && matches!(toks.get(i + 2).map(|t| &t.kind), Some(Tok::Punct(':')))
            && matches!(toks.get(i + 3).map(|t| &t.kind),
                        Some(Tok::Ident(ord)) if MEMORY_ORDERINGS.contains(&ord.as_str()));
        if !is_site {
            continue;
        }
        let ord = match &toks[i + 3].kind {
            Tok::Ident(s) => s.clone(),
            _ => continue,
        };
        if !has_marker_near(lx, comment_on_line, has_code, t.line, &["ORDERING:"]) {
            last_flagged_line = t.line;
            out.push(Finding {
                line: t.line,
                rule: "R7",
                msg: format!(
                    "`Ordering::{ord}` without an `// ORDERING:` comment justifying the \
                     memory ordering (what it synchronizes with, or why none is needed)"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// Recognises a suppression only when the comment *starts* with the marker
/// (after its `//`/`/*` prefix), so prose that merely mentions the syntax —
/// like this sentence — is not parsed as one.
fn parse_suppression(c: &Comment, sups: &mut Vec<Suppression>, findings: &mut Vec<Finding>) {
    let body =
        c.text.trim_start_matches('/').trim_start_matches('*').trim_start_matches('!').trim_start();
    let Some(rest) = body.strip_prefix("lint:allow(") else {
        return;
    };
    let Some(close) = rest.find(')') else {
        findings.push(Finding {
            line: c.first_line,
            rule: "S1",
            msg: "malformed suppression: missing `)`".to_string(),
        });
        return;
    };
    let rules: Vec<String> =
        rest[..close].split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
    let bad: Vec<&String> = rules.iter().filter(|r| !KNOWN_RULES.contains(&r.as_str())).collect();
    if rules.is_empty() || !bad.is_empty() {
        findings.push(Finding {
            line: c.first_line,
            rule: "S1",
            msg: format!(
                "suppression names unknown rule(s); known rules are {}",
                KNOWN_RULES.join(", ")
            ),
        });
        return;
    }
    let after = &rest[close + 1..];
    let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
    if reason.is_empty() {
        findings.push(Finding {
            line: c.first_line,
            rule: "S1",
            msg: "suppression must carry a reason: `// lint:allow(R4): <why>`".to_string(),
        });
        return;
    }
    sups.push(Suppression {
        rules,
        first_line: c.first_line,
        last_line: c.last_line + 1,
        reason: reason.to_string(),
        used: false,
    });
}

// ---------------------------------------------------------------------------
// cfg(test) ranges
// ---------------------------------------------------------------------------

/// Line ranges covered by `#[cfg(test)]` items (modules or functions).
/// R3–R5/R7 do not apply inside them, and the R6 concurrency pass skips
/// functions defined there; test code may lock and unwrap freely.
pub(crate) fn cfg_test_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_attr = matches!(&toks[i].kind, Tok::Punct('#'))
            && matches!(&toks[i + 1].kind, Tok::Punct('['))
            && matches!(&toks[i + 2].kind, Tok::Ident(s) if s == "cfg")
            && matches!(&toks[i + 3].kind, Tok::Punct('('))
            && matches!(&toks[i + 4].kind, Tok::Ident(s) if s == "test")
            && matches!(&toks[i + 5].kind, Tok::Punct(')'))
            && matches!(&toks[i + 6].kind, Tok::Punct(']'));
        if !is_attr {
            i += 1;
            continue;
        }
        // Find the item's opening brace; a `;` first means no body (a
        // `use`/`extern` item) — nothing to exempt.
        let mut j = i + 7;
        let mut open = None;
        while j < toks.len() {
            match toks[j].kind {
                Tok::Punct('{') => {
                    open = Some(j);
                    break;
                }
                Tok::Punct(';') => break,
                _ => j += 1,
            }
        }
        if let Some(o) = open {
            let mut depth = 0usize;
            let mut k = o;
            while k < toks.len() {
                match toks[k].kind {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let end = toks.get(k).map(|t| t.line).unwrap_or(usize::MAX);
            ranges.push((toks[i].line, end));
            i = k.max(i + 7);
        } else {
            i = j;
        }
    }
    ranges
}
