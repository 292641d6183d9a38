//! The `cpsmon` binary's usage surface: out-of-range arguments exit 2
//! with a message naming the flag, never a panic, and the help text
//! states the defaults the code really uses.

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

#[test]
fn help_states_the_real_serve_shard_default() {
    let out = Command::new(env!("CARGO_BIN_EXE_cpsmon"))
        .arg("--help")
        .output()
        .unwrap();
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    let line = help
        .lines()
        .find(|l| l.trim_start().starts_with("--shards"))
        .unwrap_or_else(|| panic!("no --shards line in:\n{help}"));
    let default = cpsmon_serve::ServeConfig::default().shards;
    assert!(
        line.ends_with(&format!("(default: {default})")),
        "usage says `{line}`, ServeConfig::default() has {default} shards"
    );
}
