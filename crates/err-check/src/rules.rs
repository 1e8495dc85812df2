//! The declarative rule tables behind the lint passes: file
//! allowlists, protocol-aware pass configuration, and the doc-drift
//! vocabulary contract. `lib.rs` holds the lexer and the pass
//! implementations; everything a reviewer would want to *edit* when
//! the workspace grows — a new Dekker file, a new DESIGN section, a
//! new trait whose override is load-bearing — lives here.

/// Every lint pass, in the order `lint` runs them: `(rule id, what it
/// enforces)`. `cargo run -p err-check -- lint --list` prints this
/// table so CI logs record exactly which passes ran.
pub const PASSES: &[(&str, &str)] = &[
    (
        "safety-comment",
        "every `unsafe` token carries a `// SAFETY:` justification within the lookback window",
    ),
    (
        "ordering-comment",
        "every non-Relaxed atomic ordering carries a `// ordering:` comment naming its pairing site",
    ),
    (
        "seqcst-scope",
        "`Ordering::SeqCst` only in the allowlisted Dekker files; downgrade or allowlist with proof",
    ),
    (
        "no-std-mutex",
        "`std::sync::Mutex` only in allowlisted cold-path modules, never per flit",
    ),
    (
        "stats-relaxed",
        "stats modules are approximate-under-race by contract and stay entirely `Relaxed`",
    ),
    (
        "try-emit-override",
        "every `impl Egress` overrides `try_emit` explicitly or acks with `// try-emit:` (the PR 6 \
         deadlock class: the default delegates to the blocking `emit`)",
    ),
    (
        "ordering-pairing",
        "`[pair: label @ file]` clauses in `// ordering:` comments form a graph; each side must \
         resolve to a matching clause pointing back (refactors cannot strand half an \
         Acquire/Release pair); mandatory in the fabric-era protocol files",
    ),
    (
        "park-protocol",
        "in the files that park flows for a link or an abort every `park_flow` names its unpark \
         authority in a `// unpark:` comment whose backticked identifiers resolve, and direct \
         `unpark_flow` calls need the same justification — a credit-parked link's flows are \
         released only by the buffered stage's `refill` (the stash-wedge class)",
    ),
    (
        "panic-boundary",
        "every spawned-thread closure wraps its body in `catch_unwind` or carries a \
         `// panic-policy:` justification",
    ),
    (
        "backstop",
        "in the threaded crates every wait a wake can end (`WAITS`: `sleep_unless` / \
         `idle_unless` / `park_timeout`) says what its timer is in a `// backstop:` comment — \
         `covered by` the named wakers (backticked identifiers must resolve; the timeout must be \
         `BACKSTOP`), `polls` what nobody announces (the timeout must not be `BACKSTOP`), or \
         `forwards` its own `timeout` parameter — so a short timer is never armed per sleep for \
         an event a peer announces (the PR 17 class)",
    ),
    (
        "step-never-waits",
        "no fn a `STEP_ROOTS` step reaches through the non-test fns of `STEP_TREES` calls a \
         `WAITS` name: a worker's step returns, and only its driver sleeps, parks, yields or \
         spins",
    ),
    (
        "doc-drift",
        "DESIGN/README/EXPERIMENTS keep naming the protocol vocabulary the code exports",
    ),
    (
        "doc-names",
        "every backticked Rust path or file path in DESIGN/README/EXPERIMENTS resolves to code, \
         a file of the tree, a metric of the ledger catalogue, a commit id or the glossary, and \
         every code comment's `§N[.M]` is a DESIGN heading and its quoted title after \
         `EXPERIMENTS.md` an EXPERIMENTS heading or bold lead; a historical name or citation is \
         exempt only on a line that names its PR",
    ),
];

/// Files allowed to use `Ordering::SeqCst`. Everything here is a
/// store→load (Dekker) protocol where independent total order is the
/// point: the drain gate's `closed+in_flight` pairing.
pub(crate) const SEQCST_FILES: &[&str] = &[
    "crates/err-runtime/src/gate.rs",
    // FabricGate: the §10 DrainGate `closed+in_flight` Dekker pair
    // replayed at fabric scope (DESIGN.md §11.3).
    "crates/err-fabric/src/fabric.rs",
];

/// Files allowed to hold a `std::sync::Mutex`. Each is a documented
/// cold-path lock: never taken on the per-flit fast path.
pub(crate) const MUTEX_FILES: &[&str] = &[
    // WakeCell's sleeper handle: locked once per thread registration
    // and once per wake that found the sleeping flag set (an unpark
    // syscall follows) — never by a wake that finds it clear.
    "crates/err-egress/src/wake.rs",
    // Experiment-harness job queue (parking_lot): offline runner, no
    // runtime fast path.
    "crates/err-experiments/src/runner.rs",
    // Fabric fault state and event log: taken by the ejection that
    // reaches an event or finds a kill awaiting settlement, by a manual
    // cut or heal, and at drain — never per flit (the per-flit fabric
    // path is the forwarder's lock-free handoff).
    "crates/err-fabric/src/fabric.rs",
];

/// Trait impls whose method override is load-bearing: `(trait name,
/// method that must be overridden, ack needle)`. An `impl <trait> for`
/// block missing the method is a violation unless a `// <ack>` comment
/// near the impl line justifies inheriting the default.
///
/// `Egress::try_emit` is the PR 6 deadlock class: the trait default
/// delegates to the *blocking* `emit`, so a wrapper that forgets the
/// override turns a forwarder's polite refusal into a worker spin that
/// starves every other link's credits.
pub(crate) const TRAIT_IMPL_RULES: &[(&str, &str, &str)] = &[("Egress", "try_emit", "try-emit:")];

/// Files whose non-Relaxed atomic sites must carry a machine-checkable
/// `[pair: label @ file]` clause (the PR 8/9 fabric-era protocol
/// files).
/// Elsewhere a free-text `// ordering:` comment is enough; clauses are
/// still graph-checked wherever they appear.
pub(crate) const PAIRED_FILES: &[&str] = &[
    "crates/err-fabric/src/chaos.rs",
    "crates/err-fabric/src/fabric.rs",
    "crates/err-egress/src/flusher.rs",
    // The hop slot table's claim, field and publish edges (§11.8): a
    // site added without its clause could let a reader accept a mixed
    // stamp.
    "crates/err-fabric/src/hops.rs",
    // The wake handshake's three swaps are one chain; a fourth site
    // added without its clause would be a silent protocol change.
    "crates/err-egress/src/wake.rs",
];

/// Files that park flows — the buffered stage's link parking (§7),
/// forced-abort residue accounting (§9.4): the park/unpark protocol
/// pass runs only here. An unpark that bypasses the buffered stage's
/// `refill`, which releases a link's flows with the credit it took,
/// is the stash-wedge class.
pub(crate) const CLAIM_FILES: &[&str] = &[
    "crates/err-runtime/src/fault.rs",
    "crates/err-runtime/src/shard.rs",
];

/// Source trees whose sleeps the `backstop` pass audits: the crates
/// that park threads on a `WakeCell` or a timer.
pub(crate) const BACKSTOP_TREES: &[&str] = &[
    "crates/err-runtime/src/",
    "crates/err-egress/src/",
    "crates/err-fabric/src/",
];

/// Every call that makes a thread wait: `(name, whether a wake can
/// end it)`. A wait a wake can end keeps a timer, which the `backstop`
/// pass audits; `step-never-waits` bans every one from a step.
pub(crate) const WAITS: &[(&str, bool)] = &[
    ("sleep_unless", true),
    ("idle_unless", true),
    ("park_timeout", true),
    ("sleep", false),
    ("park", false),
    ("yield_now", false),
    ("spin_loop", false),
];

/// The steps `step-never-waits` starts from, `(file, fn name)`: a shard
/// worker's `WorkerState::step`, whose every wait is its driver's.
pub(crate) const STEP_ROOTS: &[(&str, &str)] = &[("crates/err-runtime/src/shard.rs", "step")];

/// The trees whose non-test fns a step's calls are followed through.
/// err-fabric stays out: its Forwarder's hand-off calls
/// `submit_within` with a zero timeout, which holds the producer's
/// `yield_now` behind a patience that never reaches it (DESIGN.md
/// §11.2).
pub(crate) const STEP_TREES: &[&str] = &["crates/err-runtime/src/", "crates/err-egress/src/"];

/// The one constant a covered sleep may pass as its timeout.
pub(crate) const BACKSTOP_CONST: &str = "BACKSTOP";

/// The docs the `doc-names` pass reads.
pub(crate) const NAMED_DOCS: &[&str] = &["DESIGN.md", "README.md", "EXPERIMENTS.md"];

/// The ledger's metric catalogue: its string literals are names a doc
/// may cite (`cpu_ns_per_flit`, `runtime_buffered`).
pub(crate) const METRIC_CATALOG: &str = "bench/src/catalog.rs";

/// Extensions that make a backticked span a file path to resolve.
pub(crate) const DOC_FILE_EXTS: &[&str] = &["rs", "md", "json", "jsonl", "toml", "yml", "lock"];

/// What the tree walk skips, by name or by relpath: version control
/// and build or run outputs, which no doc should cite.
pub(crate) const TREE_SKIP: &[&str] = &[".git", "target", ".bench_build", "bench/out"];

/// Names a doc may use that no code holds: `(name, why)`.
pub(crate) const DOC_GLOSSARY: &[(&str, &str)] = &[
    ("A_i", "the paper's allowance of flow i in a round (Eq. 2)"),
    ("Sent_i", "the paper's flits sent by flow i in a visit"),
    ("SC_i", "the paper's surplus count of flow i (Eq. 1)"),
    ("MaxSC", "the paper's largest surplus count of a round"),
    ("Ts", "the paper's service-boundary instants (Lemma 2)"),
    ("FM", "the paper's relative fairness measure"),
    (
        "Max",
        "the paper's largest packet size, in DRR's Max + 2m bound",
    ),
    (
        "repro",
        "err-experiments' binary: its name is in that crate's Cargo.toml",
    ),
];

/// One declarative doc-drift rule: `doc` (under the workspace root)
/// must contain every needle, inside `section` when one is given.
pub(crate) struct DocRule {
    pub(crate) doc: &'static str,
    /// A `## N` heading; the rule applies from there to the next `## `.
    pub(crate) section: Option<&'static str>,
    pub(crate) needles: &'static [&'static str],
}

/// The drift contract: normative docs must keep naming the protocol
/// vocabulary the code exports. Mirrors (and extends to §10) the
/// enum-derived drift tests in `tests/fault_tolerance.rs`. One rule per normative DESIGN section
/// (§8–§11 and §14; the numbers 12 and 13 are retired) —
/// `tests::every_normative_design_section_has_a_doc_rule` asserts the
/// table stays complete as sections are added.
pub(crate) const DOC_RULES: &[DocRule] = &[
    // §6/§7 hand-off vocabulary: the wake edges, which timers are a
    // backstop and which a poll, and the counters that tell the two
    // apart — plus the scheduler every worker owns, the one worker
    // loop's egress stage and its two impls, and the per-batch credit
    // grant.
    DocRule {
        doc: "DESIGN.md",
        section: Some("## 6"),
        needles: &[
            "ErrScheduler",
            // The worker as a step and a driver: the step's name, the
            // `Step` variants the driver waits on, and the pass that
            // keeps the step from waiting.
            "WorkerState::step",
            "Idle { starved }",
            "Down { epoch, swept",
            "step-never-waits",
            "EgressStage",
            "SyncStage",
            "BufferedStage",
            "WakeCell",
            "re-checks its wait condition",
            // The idle path (PR 20): one for both sleepers, what a
            // look evaluates, and why a mid-push head yields.
            "idle_unless",
            "IDLE_LOOKS",
            "head_ready",
            "yield_now",
            "PARK_TIMEOUT",
            "park_timeouts",
            "AdmitDecision::Wait",
            "plain push path",
            // The timer economy (PR 17): which sleeps are covered,
            // which poll, the one constant, and the measured reason.
            "BACKSTOP",
            "covered",
            "polls",
            "starved",
            "wake_worker_for_intake",
            "18.4",
            "sched_yield",
        ],
    },
    DocRule {
        doc: "DESIGN.md",
        section: Some("## 7"),
        needles: &[
            "wake_credit_waiters",
            "relieved",
            "left on timers",
            // Per-chunk credits: the grant, the chunk a spent one ends,
            // its return, the flusher's tally, the announced link
            // transitions.
            "grant",
            "spent grant",
            "half its pool",
            "return_grants",
            "credit_delivered",
            "wake_workers",
            "no stash",
            // Who runs the step: the worker, always; a sink has one
            // contract, and one that may block refuses instead.
            "accepts or refuses at once and never blocks",
            "Producer::free_slots",
            "ring_full_spins",
            "EgressStage::flush",
            "EgressStage::drained",
            "EgressStage::abort",
            "FlusherCore::settle",
            "finalize_dead_letters",
        ],
    },
    // §8: one fixed partition — where it is computed, why no flow
    // moves, the scenario that would need stealing, and the commit to
    // revive it from.
    DocRule {
        doc: "DESIGN.md",
        section: Some("## 8"),
        needles: &[
            "home_shard",
            "SplitMix64",
            "for the life of the runtime",
            "surplus count",
            "Lemma 1",
            "idle cores",
            "3361ccd",
        ],
    },
    DocRule {
        doc: "DESIGN.md",
        section: Some("## 9"),
        needles: &[
            "Dead",
            "Clean",
            "Panicked",
            "Abandoned",
            "FaultBoard",
            // §9.1 the board's stamps.
            "death_at",
            "recovered_at",
            // §9.2 catch → resume.
            "WorkerState",
            "resume",
            "spawn_worker",
        ],
    },
    DocRule {
        doc: "DESIGN.md",
        section: Some("## 10"),
        needles: &[
            "MpscRing",
            "DrainGate",
            "CreditPool",
            "spsc",
            "Acquire",
            "Release",
            "SeqCst",
            "err-check",
            "loom",
            "happens-before",
            // The v2 protocol-aware passes and fabric-era models.
            "try-emit-override",
            "ordering-pairing",
            "park-protocol",
            "panic-boundary",
            "[pair:",
            "HoldForRecovery",
            // The hand-off cell (PR 14) and its model/mutant pair.
            "WakeCell",
            "model_wake_handshake_no_lost_wakeup",
            "mutant_wake_recheck_dropped",
            // The grant's model/mutant pair and the sleep lint (PR 17).
            "model_credit_grant_returned_exactly_once",
            "mutant_credit_grant_return_unmarked",
            "backstop",
            "step-never-waits",
        ],
    },
    // §11 vocabulary: every routing verdict, forwarder outcome, and
    // fabric fault the code can take must stay named in the spec.
    DocRule {
        doc: "DESIGN.md",
        section: Some("## 11"),
        needles: &[
            // NextHop / LinkEnd (topology.rs).
            "Eject",
            "Forward",
            "Neighbor",
            // ForwardOutcome (forwarder.rs).
            "Ejected",
            "Forwarded",
            "Refused",
            "Rerouted",
            "DeadLettered",
            // The one plan's fabric kinds (err-runtime's fault.rs), and
            // who applies them: every event on the ejecting worker, a
            // node's crash in place, in plan order — no monitor to wake,
            // no thread to join.
            "KillLink",
            "KillNode",
            "ejecting worker",
            "dies in place",
            "plan-order rule",
            // The machinery the outcomes ride on.
            "Forwarder",
            "FaultPlan",
            "try_emit",
            // The Forwarder accepts or refuses at once, so its node's
            // worker runs it bare in the flusher step.
            "runs bare",
            "flusher step",
            "route_table",
            "dimension-order",
            "ECMP",
            // Per-hop latency attribution (§11.8, hops.rs / stats.rs).
            "HopTracker",
            "HopSnapshot",
            "flow_hops",
            "service clock",
        ],
    },
    // §14 vocabulary: the healing layer's fault events, policies, and
    // supervision artifacts must stay named in the spec (spec-first;
    // see §14's preamble).
    DocRule {
        doc: "DESIGN.md",
        section: Some("## 14"),
        needles: &[
            // The plan's heal events and their builders (fault.rs).
            "HealLink",
            "ReviveNode",
            "heal_link_at",
            "revive_node_at",
            // The dead-letter replay machinery (link.rs / flusher.rs).
            "HoldForRecovery",
            "resurrect",
            "replayed",
            // Bounded drains (fabric.rs).
            "DrainOutcome",
            "HeldForRecovery",
            // The one fence left: the worker's.
            "catch_unwind",
        ],
    },
    DocRule {
        doc: "README.md",
        section: None,
        needles: &["err-check", "loom", "err-fabric", "backpressure"],
    },
    DocRule {
        doc: "EXPERIMENTS.md",
        section: None,
        needles: &[
            "interleavings",
            "mutant",
            // The isolation and healing verdicts, by the tests that
            // hold them.
            "unrelated_flows_keep_moving_while_one_path_is_stalled",
            "live_flows_keep_their_share",
            "transient_cut_heals_with_nothing_lost",
            "flap_cycles_conserve_ledger_and_credits",
            // The two fabric-era models (PR 10) still shipped must
            // stay in the interleaving-count / mutant-kill matrix.
            "model_credit_hold_refused_try_emit",
            "model_hold_for_recovery_resurrect_vs_finalize",
            // The wake handshake (PR 14): model, mutant, and the
            // ledger table its gain is stated against.
            "model_wake_handshake_no_lost_wakeup",
            "mutant_wake_recheck_dropped",
            "runtime_buffered",
            "park_timeouts",
            "pinned_cpu",
            // The grant (PR 17): model, mutant, and the history row
            // its gain is stated in.
            "model_credit_grant_returned_exactly_once",
            "mutant_credit_grant_return_unmarked",
            "a credit grant per serve",
            // The monotone credit-return stamp: model and mutant.
            "model_credit_return_stamp_is_monotone",
            "mutant_credit_return_stamp_store",
        ],
    },
];
