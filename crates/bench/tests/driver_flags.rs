//! The drivers' command line, checked through a real driver binary:
//! there is one workload size, so the retired `--smoke` flag is as
//! unknown as a typo and exits with the usage message before any work.

use std::process::Command;

#[test]
fn retired_size_flag_is_rejected_as_unknown() {
    let out = Command::new(env!("CARGO_BIN_EXE_e14_pipeline"))
        .arg("--smoke")
        .output()
        .expect("run e14_pipeline");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag \"--smoke\""), "stderr: {stderr}");
    assert!(stderr.contains("usage: <driver> [--seed <n>] [--json]"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no table may print before the flags are checked");
}
