//! A trace that cannot be written is reported, not silently lost.
//!
//! `/dev/full` opens fine and fails every write with ENOSPC, so
//! `ABW_TRACE=/dev/full` gets past the create check and then loses the
//! whole trace. The session must say so on stderr and still finish the
//! run with exit 0, the same contract as a path that cannot be created.
//! The traced session runs as a child process of its own, because the
//! trace recorder is process-global.

#![cfg(target_os = "linux")]

use std::process::Command;

#[test]
fn a_trace_write_error_is_reported_and_the_run_still_succeeds() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig5"))
        .args(["--quick", "--csv"])
        .env("ABW_TRACE", "/dev/full")
        .env_remove("ABW_MANIFEST")
        .env_remove("ABW_PROF")
        .output()
        .expect("spawn fig5");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "the run still succeeds:\n{stderr}"
    );
    assert!(
        !out.stdout.is_empty(),
        "the experiment still prints its rows"
    );
    let reports: Vec<&str> = stderr
        .lines()
        .filter(|line| line.starts_with("ABW_TRACE: cannot write /dev/full: "))
        .collect();
    assert_eq!(
        reports.len(),
        1,
        "one line names the path and the error:\n{stderr}"
    );
}
