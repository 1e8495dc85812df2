//! Fixture-driven tests for the protocol-aware lint passes: each pass
//! gets a violating fixture it must flag and a passing fixture it must
//! accept, plus meta-tests that replay the historical bug classes the
//! passes were built from (the PR 6 flusher deadlock, the PR 8
//! donor-unwind wedge, the PR 9 stranded pairing, the PR 17 per-sleep
//! timer) and assert the linter would have caught each one.

use err_check::{lint_files, lint_source, Violation};

fn rules_of(v: &[Violation]) -> Vec<&'static str> {
    v.iter().map(|x| x.rule).collect()
}

/// A scanned-set entry at a path the relevant pass applies to.
fn at(path: &str, src: &str) -> (String, String) {
    (path.to_owned(), src.to_owned())
}

// ---------------------------------------------------------------------
// try-emit-override
// ---------------------------------------------------------------------

#[test]
fn try_emit_fixture_violating() {
    let src = include_str!("fixtures/try_emit_missing.rs");
    let v = lint_source("crates/x/src/sink.rs", src);
    assert_eq!(rules_of(&v), ["try-emit-override"]);
    assert!(v[0].msg.contains("try_emit"));
}

#[test]
fn try_emit_fixture_passing() {
    let src = include_str!("fixtures/try_emit_ok.rs");
    assert!(lint_source("crates/x/src/sink.rs", src).is_empty());
}

// ---------------------------------------------------------------------
// ordering-pairing
// ---------------------------------------------------------------------

#[test]
fn pairing_fixture_violating() {
    // The counterpart file exists but lost its clause: the exact
    // stranding `lint_files` must report as one-sided.
    let v = lint_files(&[
        at(
            "crates/err-egress/src/flusher.rs",
            include_str!("fixtures/pairing_one_sided.rs"),
        ),
        at("crates/err-runtime/src/lib.rs", "pub fn join() {}\n"),
    ]);
    assert_eq!(rules_of(&v), ["ordering-pairing"]);
    assert!(v[0].msg.contains("one-sided"));
}

#[test]
fn pairing_fixture_stale_target() {
    // The counterpart file itself is gone from the scanned set.
    let v = lint_files(&[at(
        "crates/err-egress/src/flusher.rs",
        include_str!("fixtures/pairing_one_sided.rs"),
    )]);
    assert_eq!(rules_of(&v), ["ordering-pairing"]);
    assert!(v[0].msg.contains("not a scanned source file"));
}

#[test]
fn pairing_fixture_passing() {
    let v = lint_files(&[
        at(
            "crates/err-egress/src/flusher.rs",
            include_str!("fixtures/pairing_ok_a.rs"),
        ),
        at(
            "crates/err-runtime/src/lib.rs",
            include_str!("fixtures/pairing_ok_b.rs"),
        ),
    ]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

// ---------------------------------------------------------------------
// park-protocol
// ---------------------------------------------------------------------

#[test]
fn park_fixture_violating() {
    let v = lint_files(&[at(
        "crates/err-runtime/src/shard.rs",
        include_str!("fixtures/park_missing.rs"),
    )]);
    // Both the justification-free direct unpark and the authority-free
    // park are flagged.
    assert_eq!(rules_of(&v), ["park-protocol", "park-protocol"]);
}

#[test]
fn park_fixture_passing() {
    let v = lint_files(&[at(
        "crates/err-runtime/src/shard.rs",
        include_str!("fixtures/park_ok.rs"),
    )]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

// ---------------------------------------------------------------------
// panic-boundary
// ---------------------------------------------------------------------

#[test]
fn panic_fixture_violating() {
    let src = include_str!("fixtures/panic_missing.rs");
    let v = lint_source("crates/x/src/worker.rs", src);
    assert_eq!(rules_of(&v), ["panic-boundary"]);
}

#[test]
fn panic_fixture_passing() {
    let src = include_str!("fixtures/panic_ok.rs");
    assert!(lint_source("crates/x/src/worker.rs", src).is_empty());
}

// ---------------------------------------------------------------------
// backstop
// ---------------------------------------------------------------------

#[test]
fn backstop_fixture_violating() {
    let v = lint_files(&[at(
        "crates/err-egress/src/flusher.rs",
        include_str!("fixtures/backstop_missing.rs"),
    )]);
    assert_eq!(rules_of(&v), ["backstop", "backstop", "backstop"]);
    assert!(v[0].msg.contains("without a `// backstop:` comment"));
    assert!(v[1].msg.contains("pass the shared `BACKSTOP`"));
    assert!(v[2].msg.contains("would be its latency"));
}

#[test]
fn backstop_fixture_passing() {
    let v = lint_files(&[at(
        "crates/err-egress/src/flusher.rs",
        include_str!("fixtures/backstop_ok.rs"),
    )]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

// ---------------------------------------------------------------------
// Historical bug classes: each pass replayed against a miniature of
// the real regression it was distilled from. If a refactor weakens a
// pass below catching its founding bug, these fail.
// ---------------------------------------------------------------------

/// A shared-sink wrapper around an inner sink once inherited the trait
/// default, so the inner sink's `try_emit` refusal became a blocking
/// `emit` held under the shared lock — every flusher stalled behind
/// one refused flit.
#[test]
fn meta_pr6_shared_egress_missing_override_is_caught() {
    let src = concat!(
        "impl<E: Egress> Egress for SharedEgress<E> {\n",
        "    fn emit(&mut self, shard: usize, flit: &ServedFlit) {\n",
        "        self.inner.lock().expect(\"poisoned\").emit(shard, flit);\n",
        "    }\n",
        "}\n",
    );
    let v = lint_source("crates/err-egress/src/lib.rs", src);
    assert_eq!(rules_of(&v), ["try-emit-override"]);
}

/// PR 8: a donor's unwind path called `unpark_flow` directly, skipping
/// the credit re-check `unpark_respecting_links` performs — the flow
/// woke against a stalled link and wedged its stash.
#[test]
fn meta_pr8_donor_unwind_direct_unpark_is_caught() {
    let src = concat!(
        "fn withdraw_grant(ctx: &mut StealContext, flow: usize) {\n",
        "    ctx.slot.clear();\n",
        "    ctx.sched.unpark_flow(flow);\n",
        "}\n",
    );
    let v = lint_files(&[at("crates/err-runtime/src/shard.rs", src)]);
    assert_eq!(rules_of(&v), ["park-protocol"]);
    assert!(v[0].msg.contains("refill"));
}

/// PR 9: a drain refactor moved the Acquire side of the egress-closed
/// pairing and the stale comment survived review — the class the
/// machine-checked `[pair:]` graph exists to catch.
#[test]
fn meta_pr9_stranded_pairing_is_caught() {
    let release_side = concat!(
        "pub fn close(flag: &AtomicBool) {\n",
        "    // ordering: Release publishes the close to the flusher.\n",
        "    // [pair: egress-closed @ crates/err-egress/src/flusher.rs]\n",
        "    flag.store(true, Ordering::Release);\n",
        "}\n",
    );
    // The flusher after the refactor: still loads the flag, but its
    // clause was dropped on the way.
    let acquire_side = concat!(
        "pub fn run(flag: &AtomicBool) {\n",
        "    // ordering: Acquire joins the runtime's close publish.\n",
        "    while !flag.load(Ordering::Acquire) {}\n",
        "}\n",
    );
    let v = lint_files(&[
        at("crates/err-runtime/src/lib.rs", release_side),
        at("crates/err-egress/src/flusher.rs", acquire_side),
    ]);
    let rules = rules_of(&v);
    assert!(
        rules.contains(&"ordering-pairing"),
        "stranded pair escaped: {v:?}"
    );
    assert!(v.iter().any(|x| x.msg.contains("one-sided")));
}

/// PR 14 → PR 17: every hand-off became event-driven, yet each sleeper
/// still armed its old 5–100 µs timer per sleep as the "backstop" — on
/// the reference host that arming was four fifths of the buffered
/// path's cost. A sleep a peer's wake covers must keep the long timer.
#[test]
fn meta_pr17_short_timer_on_a_covered_sleep_is_caught() {
    let src = concat!(
        "fn wake_consumer() {}\n",
        "fn idle(core: &mut FlusherCore, closed: &AtomicBool, backoff: Duration) {\n",
        "    // backstop: covered by `wake_consumer`, once per batch.\n",
        "    core.rx.idle_while_empty(closed, backoff);\n",
        "}\n",
    );
    let v = lint_files(&[at("crates/err-egress/src/flusher.rs", src)]);
    assert_eq!(rules_of(&v), ["backstop"]);
    assert!(v[0].msg.contains("BACKSTOP"));
}

/// The supervision era's founding hazard: a worker spawned with no
/// unwind boundary and no stated policy dies silently, leaving its
/// shard's flows unscheduled with nothing sweeping them.
#[test]
fn meta_silent_worker_death_is_caught() {
    let src = concat!(
        "fn boot(shared: Arc<Shared>) {\n",
        "    std::thread::spawn(move || loop {\n",
        "        shared.pump();\n",
        "    });\n",
        "}\n",
    );
    let v = lint_source("crates/err-runtime/src/lib.rs", src);
    assert_eq!(rules_of(&v), ["panic-boundary"]);
}
