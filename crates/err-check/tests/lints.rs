//! Fixture-driven tests for the protocol-aware lint passes: each pass
//! gets a violating fixture it must flag and a passing fixture it must
//! accept, plus meta-tests that replay the historical bug classes the
//! passes were built from (the PR 6 flusher deadlock, the PR 8
//! donor-unwind wedge, the PR 9 stranded pairing, the PR 17 per-sleep
//! timer) and assert the linter would have caught each one. The
//! `doc-names` pass gets one violating fixture per document kind, and
//! one of code comments that cite the docs.

use err_check::{lint_code_cites, lint_doc_names, lint_files, lint_source, NameIndex, Violation};

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
// step-never-waits
// ---------------------------------------------------------------------

#[test]
fn step_fixture_violating() {
    let v = lint_files(&[at(
        "crates/err-runtime/src/shard.rs",
        include_str!("fixtures/step_waits.rs"),
    )]);
    // The step's own yield and the fault hook's spin; the driver's
    // yield is its to make.
    assert_eq!(rules_of(&v), ["step-never-waits", "step-never-waits"]);
    assert_eq!((v[0].line, v[1].line), (8, 17));
    assert!(v[0].msg.contains("`yield_now`") && v[0].msg.contains("(step)"));
    assert!(v[1].msg.contains("(step → fault_tick)"), "{v:?}");
}

#[test]
fn step_fixture_passing() {
    let v = lint_files(&[at(
        "crates/err-runtime/src/shard.rs",
        include_str!("fixtures/step_ok.rs"),
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

/// PR 8: an unwind path called `unpark_flow` directly, skipping the
/// credit re-check that `refill` now performs — the flow woke against a
/// stalled link and wedged its stash.
#[test]
fn meta_pr8_donor_unwind_direct_unpark_is_caught() {
    let src = concat!(
        "fn withdraw_grant(stage: &mut BufferedStage, flow: usize) {\n",
        "    stage.grant.clear();\n",
        "    stage.sched.unpark_flow(flow);\n",
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
        "fn idle(cell: &WakeCell, ring: &Ring, backoff: Duration) {\n",
        "    // backstop: covered by `wake_consumer`, once per batch.\n",
        "    cell.idle_unless(|| ring.head_ready(), backoff);\n",
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

/// Until err-fabric joined `STEP_TREES`, a Forwarder's hand-off reached
/// a producer's wait unchecked: its `try_emit`, which a node's flusher
/// step calls, submitted through the peer's `submit_within`, whose body
/// yields at a wait. The pass must follow the step into err-fabric and
/// on into err-runtime's submit.
#[test]
fn meta_fabric_hand_off_reaching_a_producer_wait_is_caught() {
    let step = concat!(
        "impl WorkerState {\n",
        "    pub fn step(&mut self, sink: &mut dyn Egress) -> Step {\n",
        "        sink.try_emit(0, &self.flit);\n",
        "        Step::Busy\n",
        "    }\n",
        "}\n",
    );
    let forwarder = concat!(
        "impl Egress for Forwarder {\n",
        "    fn try_emit(&mut self, _shard: usize, flit: &ServedFlit) -> bool {\n",
        "        self.peer.submit_within(flit.packet(), Duration::ZERO).is_ok()\n",
        "    }\n",
        "}\n",
    );
    let ingress = concat!(
        "impl RuntimeHandle {\n",
        "    pub fn submit_within(&self, pkt: Packet, timeout: Duration) -> Result<(), SubmitError> {\n",
        "        while self.ring.push(pkt).is_err() {\n",
        "            std::thread::yield_now();\n",
        "        }\n",
        "        Ok(())\n",
        "    }\n",
        "}\n",
    );
    let v = lint_files(&[
        at("crates/err-runtime/src/shard.rs", step),
        at("crates/err-fabric/src/forwarder.rs", forwarder),
        at("crates/err-runtime/src/ingress.rs", ingress),
    ]);
    assert_eq!(rules_of(&v), ["step-never-waits"], "{v:?}");
    assert_eq!(
        (v[0].file.as_str(), v[0].line),
        ("crates/err-runtime/src/ingress.rs", 4)
    );
    assert!(
        v[0].msg.contains("(step → try_emit → submit_within)"),
        "{v:?}"
    );
}

// ---------------------------------------------------------------------
// doc-names: one violating fixture per document kind, each against a
// miniature tree whose code has `BufferedStage::refill`, whose tests
// have `tests/fence.rs`, and whose ledger catalogue has a metric.
// ---------------------------------------------------------------------

fn doc_names(doc: &str, text: &str) -> Vec<Violation> {
    let sources = [
        at(
            "crates/err-runtime/src/shard.rs",
            "struct BufferedStage;\nimpl BufferedStage {\n    fn refill(&mut self) {}\n}\n",
        ),
        at(
            "bench/src/catalog.rs",
            "const M: &[&str] = &[\"cpu_ns_per_flit\"];\n",
        ),
    ];
    let tree: Vec<String> = ["crates/err-runtime/src/shard.rs", "tests/fence.rs"]
        .map(str::to_owned)
        .to_vec();
    lint_doc_names(&[at(doc, text)], &NameIndex::new(&sources, &tree))
}

#[test]
fn doc_names_design_fixture_violating() {
    let v = doc_names("DESIGN.md", include_str!("fixtures/doc_names_design.md"));
    assert_eq!(rules_of(&v), ["doc-names"]);
    assert_eq!(v[0].line, 4);
    assert!(v[0].msg.contains("`sweep_stash`"), "{v:?}");
}

#[test]
fn doc_names_readme_fixture_violating() {
    let v = doc_names("README.md", include_str!("fixtures/doc_names_readme.md"));
    assert_eq!(rules_of(&v), ["doc-names"]);
    assert!(v[0].msg.contains("`tests/ownership.rs`"), "{v:?}");
}

#[test]
fn doc_names_experiments_fixture_violating() {
    let v = doc_names(
        "EXPERIMENTS.md",
        include_str!("fixtures/doc_names_experiments.md"),
    );
    // The row that names its PR is history; the row that does not is a
    // claim about the code, and the code has no such name.
    assert_eq!(rules_of(&v), ["doc-names"]);
    assert_eq!(v[0].line, 8);
    assert!(v[0].msg.contains("`HandleTable`"), "{v:?}");
}

#[test]
fn doc_cites_fixture_violating() {
    let docs = [
        at("DESIGN.md", "## 6. Runtime\n\n### 9.2 The fence\n"),
        at(
            "EXPERIMENTS.md",
            "### Tried and dropped\n\n**An adaptive spin budget (PR 20).** It moved nothing.\n",
        ),
    ];
    let src = include_str!("fixtures/doc_cites_stale.rs");
    let v = lint_code_cites(&[at("crates/err-egress/src/wake.rs", src)], &docs);
    // The stale title and the retired section; the section cited
    // beside its PR is history.
    assert_eq!(rules_of(&v), ["doc-names", "doc-names"]);
    assert_eq!((v[0].line, v[1].line), (5, 3), "{v:?}");
    assert!(v[0].msg.contains("`§12`") && v[1].msg.contains("An idle thread costs nothing"));
    // Outside the trees that cite, a comment is not read.
    assert!(lint_code_cites(&[at("vendor/x/src/lib.rs", src)], &docs).is_empty());
}
