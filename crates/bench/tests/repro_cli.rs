//! `repro`'s command line: a misspelt experiment name fails up front.

use std::process::Command;

#[test]
fn an_unknown_experiment_fails_before_anything_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "ablaton"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `ablaton`"), "{stderr}");
    // Not even the valid `table1` ran.
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
