//! The workspace must lint clean: every rule in err-check's engine,
//! applied to every source file and doc contract, with zero findings.
//! This is the same check CI runs via `cargo run -p err-check -- lint`,
//! pinned as a test so `cargo test --workspace` catches drift too.

use err_check::{lint_workspace, workspace_root};

#[test]
fn workspace_lints_clean() {
    let violations = lint_workspace(&workspace_root()).expect("walk workspace sources");
    assert!(
        violations.is_empty(),
        "err-check found {} violation(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
