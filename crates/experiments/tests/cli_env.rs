//! Typoed environment knobs must fail as usage errors before anything runs,
//! not as panics from inside an experiment.

use std::process::Command;

#[test]
fn env_typos_are_usage_errors_not_panics() {
    for (var, typo) in [
        ("NDP_SCHED", "clasic"),
        ("NDP_SCALE", "quik"),
        ("NDP_TOPO", "leafspin"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ndp"))
            .args(["run", "quickstart"])
            .env_remove("NDP_SCHED")
            .env_remove("NDP_SCALE")
            .env_remove("NDP_TOPO")
            .env(var, typo)
            .output()
            .expect("spawn ndp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={typo}: {stderr}");
        assert!(!stderr.contains("panicked"), "{var}={typo}: {stderr}");
        let first = stderr.lines().next().unwrap_or("");
        assert!(
            first.starts_with(&format!("ndp: {var} must be")) && first.contains(typo),
            "{var}={typo}: first line was '{first}'"
        );
        assert!(out.stdout.is_empty(), "{var}={typo}: nothing may run");
    }
}
