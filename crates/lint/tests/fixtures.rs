//! Fixture tests: every rule must catch its deliberately-broken snippet
//! (positive), stay quiet on the compliant variant (negative), and honour a
//! reasoned suppression (suppressed). Paths are faked to exercise the
//! path-scoped rules; the engine never touches the filesystem here.

use ihtl_lint::check_file;

/// Rules triggered on `src` when linted under `path`.
fn rules_at(path: &str, src: &str) -> Vec<&'static str> {
    check_file(path, src).findings.iter().map(|f| f.rule).collect()
}

/// (rules, honoured-suppression count).
fn rules_and_sups(path: &str, src: &str) -> (Vec<&'static str>, usize) {
    let r = check_file(path, src);
    (r.findings.iter().map(|f| f.rule).collect(), r.suppressions.len())
}

const ANY: &str = "crates/graph/src/fixture.rs";

// ---------------------------------------------------------------------- R1

#[test]
fn r1_unsafe_without_safety_comment() {
    let src = "pub fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n";
    assert_eq!(rules_at(ANY, src), vec!["R1"]);
}

#[test]
fn r1_safety_comment_directly_above_passes() {
    let src = "pub fn f(p: *const u32) -> u32 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
    assert!(rules_at(ANY, src).is_empty());
}

#[test]
fn r1_safety_doc_section_on_unsafe_fn_passes() {
    let src = "/// Reads raw.\n///\n/// # Safety\n/// `p` must be valid.\npub unsafe fn f(p: *const u32) -> u32 {\n    // SAFETY: contract forwarded from the fn's # Safety section.\n    unsafe { *p }\n}\n";
    assert!(rules_at(ANY, src).is_empty());
}

#[test]
fn r1_comment_survives_attributes_and_binding_head() {
    let src = "pub fn f(p: *const u32) -> u32 {\n    // SAFETY: p valid for reads.\n    #[allow(clippy::let_and_return)]\n    let v =\n        unsafe { *p };\n    v\n}\n";
    assert!(rules_at(ANY, src).is_empty());
}

#[test]
fn r1_fn_pointer_type_is_not_a_site() {
    let src = "struct Job {\n    run: unsafe fn(*const ()),\n}\ntype F = unsafe fn(u32) -> u32;\n";
    assert!(rules_at(ANY, src).is_empty());
}

#[test]
fn r1_unsafe_in_string_or_comment_is_not_a_site() {
    let src =
        "// this mentions unsafe code\npub fn f() -> &'static str {\n    \"unsafe { nope }\"\n}\n";
    assert!(rules_at(ANY, src).is_empty());
}

#[test]
fn r1_blank_line_detaches_the_comment() {
    let src = "pub fn f(p: *const u32) -> u32 {\n    // SAFETY: stale, detached comment.\n\n    unsafe { *p }\n}\n";
    assert_eq!(rules_at(ANY, src), vec!["R1"]);
}

#[test]
fn r1_suppression_with_reason_is_honoured() {
    let src = "pub fn f(p: *const u32) -> u32 {\n    // lint:allow(R1): audited in review, comment pending\n    unsafe { *p }\n}\n";
    let (rules, sups) = rules_and_sups(ANY, src);
    assert!(rules.is_empty());
    assert_eq!(sups, 1);
}

// ---------------------------------------------------------------------- R2

#[test]
fn r2_get_unchecked_far_from_justification() {
    // The SAFETY comment is more than two code lines above the call and
    // the function has no assert: both justification paths fail.
    let src = "pub fn f(xs: &[f64], i: usize) -> f64 {\n    // SAFETY: block established elsewhere.\n    unsafe {\n        let a = i + 1;\n        let b = a * 2;\n        let c = b - 1;\n        *xs.get_unchecked(c)\n    }\n}\n";
    assert_eq!(rules_at(ANY, src), vec!["R2"]);
}

#[test]
fn r2_debug_assert_in_enclosing_fn_passes() {
    let src = "pub fn f(xs: &[f64], i: usize) -> f64 {\n    debug_assert!(i + 1 < xs.len());\n    // SAFETY: bounds checked by the debug_assert above.\n    unsafe {\n        let a = i + 1;\n        let b = a;\n        let c = b;\n        *xs.get_unchecked(c)\n    }\n}\n";
    assert!(rules_at(ANY, src).is_empty());
}

#[test]
fn r2_adjacent_safety_comment_passes() {
    let src = "pub fn f(xs: &[f64], i: usize) -> f64 {\n    // SAFETY: i < xs.len() validated at IHTLBLK2 load time.\n    unsafe { *xs.get_unchecked(i) }\n}\n";
    assert!(rules_at(ANY, src).is_empty());
}

#[test]
fn r2_assert_in_another_fn_does_not_count() {
    let src = "pub fn g(xs: &[f64]) {\n    assert!(!xs.is_empty());\n}\npub fn f(xs: &[f64], i: usize) -> f64 {\n    unsafe {\n        let a = i;\n        let b = a;\n        let c = b;\n        *xs.get_unchecked(c)\n    }\n}\n";
    assert!(rules_at(ANY, src).contains(&"R2"));
}

// ---------------------------------------------------------------------- R3

const SERVE: &str = "crates/serve/src/handler.rs";

#[test]
fn r3_unwrap_expect_panic_and_literal_index_in_serve() {
    let src = "pub fn handle(v: &[u8], m: std::sync::Mutex<u32>) -> u8 {\n    let g = m.lock().unwrap();\n    let h = m.lock().expect(\"lock\");\n    if v.is_empty() {\n        panic!(\"empty\");\n    }\n    v[0]\n}\n";
    assert_eq!(rules_at(SERVE, src), vec!["R3", "R3", "R3", "R3"]);
}

#[test]
fn r3_does_not_apply_outside_serve_and_traversal() {
    let src = "pub fn f(v: &[u8]) -> u8 {\n    v.first().copied().unwrap()\n}\n";
    assert!(rules_at("crates/gen/src/fixture.rs", src).is_empty());
}

#[test]
fn r3_cfg_test_module_is_exempt() {
    let src = "pub fn ok() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let v = vec![1u8];\n        assert_eq!(v[0], 1);\n        Some(3).unwrap();\n    }\n}\n";
    assert!(rules_at(SERVE, src).is_empty());
}

#[test]
fn r3_unwrap_or_and_expect_byte_are_fine() {
    let src = "pub fn f(v: Option<u8>, p: &mut Parser) -> Result<u8, ()> {\n    p.expect_byte(b':')?;\n    Ok(v.unwrap_or(0))\n}\n";
    assert!(rules_at(SERVE, src).is_empty());
}

#[test]
fn r3_unreachable_in_traversal_kernel() {
    let src = "pub fn kernel(sel: u8) -> u8 {\n    match sel {\n        0 => 1,\n        _ => unreachable!(\"bad selector\"),\n    }\n}\n";
    assert_eq!(rules_at("crates/traversal/src/kernel.rs", src), vec!["R3"]);
}

#[test]
fn r3_suppression_requires_reason() {
    let with_reason = "pub fn f(v: Option<u8>) -> u8 {\n    // lint:allow(R3): startup path, cannot be reached with a live socket\n    v.unwrap()\n}\n";
    let (rules, sups) = rules_and_sups(SERVE, with_reason);
    assert!(rules.is_empty());
    assert_eq!(sups, 1);

    let without_reason =
        "pub fn f(v: Option<u8>) -> u8 {\n    // lint:allow(R3)\n    v.unwrap()\n}\n";
    let got = rules_at(SERVE, without_reason);
    // The reason-less comment is itself a finding and suppresses nothing.
    assert!(got.contains(&"S1") && got.contains(&"R3"), "{got:?}");
}

// ---------------------------------------------------------------------- R4

#[test]
fn r4_hashmap_in_wire_file() {
    let src = "use std::collections::HashMap;\npub fn render(m: &HashMap<String, u32>) -> String {\n    format!(\"{}\", m.len())\n}\n";
    // Every file that renders wire output, the shared endpoint included.
    for wire_file in ["crates/serve/src/json.rs", "crates/serve/src/endpoint.rs"] {
        assert_eq!(rules_at(wire_file, src), vec!["R4", "R4"], "{wire_file}");
    }
    // The same code is fine in a non-wire serve file (order never leaks).
    assert!(rules_at("crates/serve/src/registry.rs", src).is_empty());
}

#[test]
fn r4_instant_now_outside_stats_or_bench() {
    let src = "use std::time::Instant;\npub fn f() -> f64 {\n    let t = Instant::now();\n    t.elapsed().as_secs_f64()\n}\n";
    assert_eq!(rules_at("crates/core/src/fixture.rs", src), vec!["R4"]);
    assert!(rules_at("crates/bench/src/fixture.rs", src).is_empty());
    assert!(rules_at("crates/core/src/stats.rs", src).is_empty());
    assert!(rules_at("crates/core/benches/fixture.rs", src).is_empty());
    // The tracing layer owns the workspace's monotonic clock.
    assert!(rules_at("crates/trace/src/lib.rs", src).is_empty());
}

#[test]
fn r4_systemtime_now_flagged_and_suppressible() {
    let src = "pub fn f() {\n    // lint:allow(R4): logged timestamp only, never fed to a checksum\n    let _ = std::time::SystemTime::now();\n}\n";
    let (rules, sups) = rules_and_sups("crates/core/src/fixture.rs", src);
    assert!(rules.is_empty());
    assert_eq!(sups, 1);
}

// ---------------------------------------------------------------------- R5

#[test]
fn r5_thread_spawn_outside_runtime_crates() {
    let src = "pub fn f() {\n    std::thread::spawn(|| {});\n    let b = std::thread::Builder::new();\n    let _ = b;\n}\n";
    assert_eq!(rules_at("crates/apps/src/fixture.rs", src), vec!["R5", "R5"]);
    assert!(rules_at("crates/parallel/src/fixture.rs", src).is_empty());
    assert!(rules_at("crates/serve/src/bin/daemon.rs", src).is_empty());
    assert!(rules_at("crates/router/src/lib.rs", src).is_empty());
}

#[test]
fn r5_thread_sleep_is_fine_anywhere() {
    let src = "pub fn f() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n";
    assert!(rules_at("crates/apps/src/fixture.rs", src).is_empty());
}

// -------------------------------------------------------------- suppressions

#[test]
fn unused_suppression_is_reported() {
    let src = "// lint:allow(R3): nothing here actually violates R3\npub fn f() {}\n";
    assert_eq!(rules_at(SERVE, src), vec!["S2"]);
}

#[test]
fn unknown_rule_in_suppression_is_reported() {
    let src = "// lint:allow(R9): no such rule\npub fn f() {}\n";
    assert_eq!(rules_at(ANY, src), vec!["S1"]);
}

#[test]
fn prose_mentioning_the_syntax_is_not_a_suppression() {
    let src = "/// Silence a finding with a `lint:allow(R4): reason` comment.\npub fn f() {}\n";
    assert!(rules_at(ANY, src).is_empty());
}

#[test]
fn one_comment_may_cover_multiple_rules() {
    let src = "pub fn f(v: Option<u8>) -> u64 {\n    // lint:allow(R3, R4): fixture exercising multi-rule suppressions\n    v.unwrap() as u64 + std::time::Instant::now().elapsed().as_secs()\n}\n";
    let (rules, sups) = rules_and_sups(SERVE, src);
    assert!(rules.is_empty(), "{rules:?}");
    assert_eq!(sups, 2);
}

// ------------------------------------------------------------------- output

#[test]
fn findings_render_as_file_line_rule() {
    let report = check_file(SERVE, "pub fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n");
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert_eq!((f.line, f.rule), (2, "R3"));
}

// ---------------------------------------------------------------------- R7

#[test]
fn r7_ordering_without_justification() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(a: &AtomicU64) {\n    a.store(1, Ordering::Relaxed);\n}\n";
    assert_eq!(rules_at(ANY, src), vec!["R7"]);
}

#[test]
fn r7_ordering_comment_directly_above_passes() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(a: &AtomicU64) {\n    // ORDERING: Relaxed — stats counter, no data published through it.\n    a.store(1, Ordering::Relaxed);\n}\n";
    assert!(rules_at(ANY, src).is_empty());
}

#[test]
fn r7_one_comment_per_line_multiple_orderings_on_one_line() {
    // A CAS carries two orderings on one line; one comment covers the line.
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(a: &AtomicU64) {\n    // ORDERING: AcqRel success / Acquire failure — publishes the slot.\n    let _ = a.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);\n}\n";
    assert!(rules_at(ANY, src).is_empty());
}

#[test]
fn r7_trace_ring_seqlock_is_exempt() {
    // The seqlock module documents its protocol once at module level.
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(a: &AtomicU64) {\n    a.store(1, Ordering::Release);\n}\n";
    assert!(rules_at("crates/trace/src/ring.rs", src).is_empty());
    assert_eq!(rules_at("crates/trace/src/lib.rs", src), vec!["R7"]);
}

#[test]
fn r7_tests_and_driver_files_are_exempt() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(a: &AtomicU64) {\n    a.store(1, Ordering::Relaxed);\n}\n";
    assert!(rules_at("tests/integration.rs", src).is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::{AtomicU64, Ordering};\n    fn f(a: &AtomicU64) {\n        a.store(1, Ordering::Relaxed);\n    }\n}\n";
    assert!(rules_at(ANY, in_test).is_empty());
}

#[test]
fn r7_import_and_cmp_ordering_are_not_sites() {
    let src = "use std::sync::atomic::Ordering;\nuse std::cmp::Ordering as CmpOrd;\npub fn f(a: u32, b: u32) -> CmpOrd {\n    let _ = std::cmp::Ordering::Less;\n    a.cmp(&b)\n}\n";
    assert!(rules_at(ANY, src).is_empty());
}

#[test]
fn r7_suppression_is_honoured() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(a: &AtomicU64) {\n    // lint:allow(R7): ordering audit pending for this migration shim\n    a.store(1, Ordering::SeqCst);\n}\n";
    let (rules, sups) = rules_and_sups(ANY, src);
    assert!(rules.is_empty());
    assert_eq!(sups, 1);
}

// ---------------------------------------------------------------------- R6

use ihtl_lint::{check_sources, Hierarchy};

/// Renders the R6 findings for a multi-file fixture workspace.
fn r6_findings(files: &[(&str, &str)], h: &Hierarchy) -> Vec<String> {
    check_sources(files, h).findings.iter().filter(|f| f.rule == "R6").map(|f| f.render()).collect()
}

const FIX_A: &str = "crates/serve/src/fixture_a.rs";
const FIX_B: &str = "crates/serve/src/fixture_b.rs";

#[test]
fn r6_detects_two_lock_cycle() {
    // Classic AB/BA deadlock: one function takes alpha then beta, another
    // takes beta then alpha.
    let src = "pub fn ab(s: &S) {\n    let a = crate::lock_ok(&s.alpha);\n    let b = crate::lock_ok(&s.beta);\n}\npub fn ba(s: &S) {\n    let b = crate::lock_ok(&s.beta);\n    let a = crate::lock_ok(&s.alpha);\n}\n";
    let h = Hierarchy::empty().with_edge("serve", "alpha", "beta");
    let got = r6_findings(&[(FIX_A, src)], &h);
    // The beta -> alpha edge is undeclared AND closes a cycle.
    assert!(got.iter().any(|f| f.contains("beta` -> `alpha")), "{got:?}");
    assert!(got.iter().any(|f| f.contains("cycle")), "{got:?}");
}

#[test]
fn r6_declared_order_is_clean() {
    let src = "pub fn ab(s: &S) {\n    let a = crate::lock_ok(&s.alpha);\n    let b = crate::lock_ok(&s.beta);\n}\n";
    let h = Hierarchy::empty().with_edge("serve", "alpha", "beta");
    assert!(r6_findings(&[(FIX_A, src)], &h).is_empty());
    // The same nesting with an empty hierarchy is an undeclared edge.
    let got = r6_findings(&[(FIX_A, src)], &Hierarchy::empty());
    assert!(got.iter().any(|f| f.contains("alpha` -> `beta")), "{got:?}");
}

#[test]
fn r6_transitive_closure_of_declared_edges_allows_skips() {
    // Declared a -> b -> c allows observing a -> c directly.
    let src = "pub fn ac(s: &S) {\n    let a = crate::lock_ok(&s.alpha);\n    let c = crate::lock_ok(&s.gamma);\n}\n";
    let h =
        Hierarchy::empty().with_edge("serve", "alpha", "beta").with_edge("serve", "beta", "gamma");
    assert!(r6_findings(&[(FIX_A, src)], &h).is_empty());
}

#[test]
fn r6_lock_held_across_condvar_wait() {
    // `outer` stays held while the condvar consumes (and re-acquires) only
    // the `inner` guard — the classic lock-across-wait deadlock shape.
    let src = "pub fn f(s: &S) {\n    let g = crate::lock_ok(&s.outer);\n    let mut st = crate::lock_ok(&s.inner);\n    st = s.cv.wait(st).unwrap_or_else(|e| e.into_inner());\n}\n";
    let h = Hierarchy::empty().with_edge("serve", "outer", "inner");
    let got = r6_findings(&[(FIX_A, src)], &h);
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("outer` held across blocking operation `Condvar::wait"), "{got:?}");
}

#[test]
fn r6_wait_consuming_the_only_guard_is_clean() {
    let src = "pub fn f(s: &S) {\n    let mut st = crate::lock_ok(&s.inner);\n    while st.busy {\n        st = s.cv.wait(st).unwrap_or_else(|e| e.into_inner());\n    }\n}\n";
    assert!(r6_findings(&[(FIX_A, src)], &Hierarchy::empty()).is_empty());
}

#[test]
fn r6_lock_held_across_store_io() {
    let src = "pub fn f(s: &S, store: &Store, h: u64) {\n    let mut slot = crate::lock_ok(&s.slot);\n    let _ = store.load_ihtl(h, &s.cfg);\n}\n";
    let got = r6_findings(&[(FIX_A, src)], &Hierarchy::empty());
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("slot` held across blocking operation `load_ihtl"), "{got:?}");
}

#[test]
fn r6_suppression_with_reason_is_honoured() {
    let src = "pub fn f(s: &S, store: &Store, h: u64) {\n    let mut slot = crate::lock_ok(&s.slot);\n    // lint:allow(R6): build-once slot guard, held across I/O by design\n    let _ = store.load_ihtl(h, &s.cfg);\n}\n";
    let report = check_sources(&[(FIX_A, src)], &Hierarchy::empty());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressions.len(), 1);
}

#[test]
fn r6_dropped_and_statement_scoped_guards_do_not_leak_edges() {
    // drop(g) ends liveness; a chained temporary dies at its statement.
    let src = "pub fn f(s: &S) {\n    let g = crate::lock_ok(&s.alpha);\n    drop(g);\n    let h = crate::lock_ok(&s.beta);\n}\npub fn t(s: &S) {\n    crate::lock_ok(&s.alpha).clear();\n    let h = crate::lock_ok(&s.beta);\n}\n";
    assert!(r6_findings(&[(FIX_A, src)], &Hierarchy::empty()).is_empty());
}

#[test]
fn r6_resolves_through_same_crate_callees() {
    // File A holds a lock while calling a helper in file B that acquires
    // another lock; the edge is attributed to the call site in A.
    let a = "pub fn caller(s: &S) {\n    let g = crate::lock_ok(&s.alpha);\n    helper(s);\n}\n";
    let b = "pub fn helper(s: &S) {\n    let h = crate::lock_ok(&s.beta);\n}\n";
    let got = r6_findings(&[(FIX_A, a), (FIX_B, b)], &Hierarchy::empty());
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].starts_with(FIX_A), "{got:?}");
    assert!(got[0].contains("alpha` -> `beta"), "{got:?}");
}

#[test]
fn r6_guard_returning_helper_acts_as_acquisition() {
    // `lock_names()`-style helpers: the caller acquires what the helper
    // locks, so holding another guard across the call is an edge.
    let src = "fn lock_names() -> std::sync::MutexGuard<'static, Vec<u32>> {\n    NAMES.lock().unwrap_or_else(|e| e.into_inner())\n}\npub fn f(s: &S) {\n    let g = crate::lock_ok(&s.alpha);\n    let names = lock_names();\n}\n";
    let got = r6_findings(&[(FIX_A, src)], &Hierarchy::empty());
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("alpha` -> `NAMES"), "{got:?}");
}

#[test]
fn r6_self_deadlock_is_reported() {
    let src = "pub fn f(s: &S) {\n    let a = crate::lock_ok(&s.alpha);\n    let b = crate::lock_ok(&s.alpha);\n}\n";
    let got = r6_findings(&[(FIX_A, src)], &Hierarchy::empty());
    assert!(got.iter().any(|f| f.contains("self-deadlock")), "{got:?}");
}

#[test]
fn r6_skips_test_functions_and_driver_files() {
    let src = "#[cfg(test)]\nmod tests {\n    fn f(s: &super::S) {\n        let b = crate::lock_ok(&s.beta);\n        let a = crate::lock_ok(&s.alpha);\n    }\n}\n";
    assert!(r6_findings(&[(FIX_A, src)], &Hierarchy::empty()).is_empty());
    let driver = "pub fn f(s: &S) {\n    let b = crate::lock_ok(&s.beta);\n    let a = crate::lock_ok(&s.alpha);\n}\n";
    assert!(r6_findings(&[("tests/fixture.rs", driver)], &Hierarchy::empty()).is_empty());
}

#[test]
fn r6_locks_are_scoped_per_crate() {
    // The same field names in different crates are different locks: each
    // crate's AB nesting is a (distinct) undeclared edge, not a cycle.
    let a = "pub fn f(s: &S) {\n    let g = crate::lock_ok(&s.alpha);\n    let h = crate::lock_ok(&s.beta);\n}\n";
    let b = "pub fn f(s: &S) {\n    let g = crate::lock_ok(&s.beta);\n    let h = crate::lock_ok(&s.alpha);\n}\n";
    let got = r6_findings(&[(FIX_A, a), ("crates/store/src/fixture.rs", b)], &Hierarchy::empty());
    assert_eq!(got.len(), 2, "{got:?}");
    assert!(!got.iter().any(|f| f.contains("cycle")), "{got:?}");
}

#[test]
fn r6_hierarchy_parses_locks_md_bullets() {
    let text = "# Lock hierarchy\n\nProse is ignored.\n\n- serve: queue -> result\n- trace: REGISTRY -> NAMES\n- not an edge line\n";
    let h = Hierarchy::parse(text);
    let src = "pub fn f(s: &S) {\n    let q = crate::lock_ok(&s.queue);\n    let r = crate::lock_ok(&s.result);\n}\n";
    assert!(r6_findings(&[(FIX_A, src)], &h).is_empty());
    let rev = "pub fn f(s: &S) {\n    let r = crate::lock_ok(&s.result);\n    let q = crate::lock_ok(&s.queue);\n}\n";
    assert!(!r6_findings(&[(FIX_A, rev)], &h).is_empty());
}
