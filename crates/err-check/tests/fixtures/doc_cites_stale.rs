//! A module whose comments cite the docs (DESIGN.md §6, §9.2).
//!
//! An adaptive budget was dropped (EXPERIMENTS.md,
//! "An idle thread costs nothing"), and the what-if estimator of
//! §12 went with its section.

/// Deleted with its section (DESIGN.md §13, PR 18).
pub fn retired() {}

/// Measured in EXPERIMENTS.md, "An adaptive spin budget (PR 20)".
pub fn kept() {}
