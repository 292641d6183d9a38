//! Usage errors of the `cpsmon` binary: out-of-range arguments exit 2
//! with a message naming the flag, never a panic.

use std::process::Command;

#[test]
fn replay_rejects_out_of_range_fleet_sizes_with_a_usage_error() {
    for flag in [["--patients", "21"], ["--patients", "0"], ["--steps", "0"]] {
        // Validation happens while parsing, before any connection.
        let out = Command::new(env!("CARGO_BIN_EXE_cpsmon"))
            .args(["replay", "127.0.0.1:9"])
            .args(flag)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(stderr.contains(flag[0]), "{flag:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag:?}: {stderr}");
    }
}
