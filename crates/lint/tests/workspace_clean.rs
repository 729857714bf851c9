//! The repository lints clean: the same check as
//! `cargo run -p sm-lint -- --workspace`, run by the workspace test suite
//! so a finding fails `cargo test` as well as the dedicated lint job.

use std::path::Path;

#[test]
fn the_repository_has_no_unwaived_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = sm_lint::lint_workspace(&root).expect("the repository tree is readable");
    let unwaived: Vec<String> = report.unwaived().map(|f| f.to_string()).collect();
    assert!(
        unwaived.is_empty(),
        "sm-lint findings in the repository:\n{}",
        unwaived.join("\n")
    );
    assert!(
        report.files_scanned >= 100,
        "the walk went missing: {} files scanned",
        report.files_scanned
    );
}
