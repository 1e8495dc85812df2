#![warn(missing_docs)]
//! Criterion benchmark host for the workspace — the measurable claims
//! live in `benches/`, not here.
//!
//! The library target is intentionally empty: criterion benches are
//! separate compilation units (`harness = false` targets listed in
//! `Cargo.toml`), and keeping the crate root empty means `cargo doc`
//! and `cargo test` stay trivial while `cargo bench -p err-bench`
//! picks up every bench target.
//!
//! What each bench measures:
//!
//! - `work_complexity` — Table 1's complexity column: ERR's O(1)
//!   enqueue+dequeue work per flit vs flow count, against the
//!   O(log n) sorted-queue disciplines (WFQ/SCFQ/Virtual Clock).
//! - `figure_kernels` — one reduced-horizon kernel per paper figure,
//!   exercising the exact code path of each `repro` reproduction.
//! - `wormhole` — wormhole substrate throughput: switch and mesh
//!   cycles per second across arbiter kinds.
//!
//! Scheduler, runtime and egress throughput are timed by the `bench/`
//! ledger (`err-ledger`), not here.
