//! Usage errors — typoed environment knobs, unknown ids, `--topo` on a
//! fixed-shape experiment — must fail with exit code 2 before anything
//! runs, not as panics from inside an experiment; `ndp list` prints the
//! registry.

use ndp_experiments::registry::EXPERIMENTS;
use std::process::{Command, Output};

/// `ndp <args>` with every environment knob cleared, then `env` set.
fn ndp(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ndp"));
    cmd.args(args)
        .env_remove("NDP_THREADS")
        .env_remove("NDP_SCALE")
        .env_remove("NDP_TOPO");
    for &(var, value) in env {
        cmd.env(var, value);
    }
    cmd.output().expect("spawn ndp")
}

/// Asserts `out` is a usage error that ran nothing; returns stderr's
/// first line.
fn usage_error(out: &Output, what: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert!(out.stdout.is_empty(), "{what}: nothing may run");
    stderr.lines().next().unwrap_or("").to_string()
}

#[test]
fn env_typos_are_usage_errors_not_panics() {
    for (var, typo) in [
        ("NDP_SCALE", "quik"),
        ("NDP_TOPO", "leafspin"),
        ("NDP_THREADS", "seven"),
        ("NDP_THREADS", "0"),
    ] {
        let what = format!("{var}={typo}");
        let out = ndp(&["run", "quickstart"], &[(var, typo)]);
        let first = usage_error(&out, &what);
        assert!(
            first.starts_with(&format!("ndp: {var} must be")) && first.contains(typo),
            "{what}: first line was '{first}'"
        );
    }
}

#[test]
fn topo_on_a_fixed_topology_experiment_is_a_usage_error() {
    let out = ndp(&["run", "fig09", "--topo", "leafspine"], &[]);
    let first = usage_error(&out, "fig09 --topo leafspine");
    assert!(
        first.contains("'fig09'") && first.contains("fixed topology"),
        "first line was '{first}'"
    );
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = ndp(&["run", "nosuch"], &[]);
    let first = usage_error(&out, "run nosuch");
    assert!(
        first.contains("unknown experiment 'nosuch'"),
        "first line was '{first}'"
    );
}

#[test]
fn list_prints_every_experiment_in_registry_order() {
    let out = ndp(&["list"], &[]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), EXPERIMENTS.len(), "{stdout}");
    for (line, exp) in lines.iter().zip(EXPERIMENTS) {
        let about = exp.about.unwrap_or(exp.title);
        assert!(
            line.split_whitespace().next() == Some(exp.id) && line.ends_with(about),
            "line '{line}' for '{}'",
            exp.id
        );
    }
}
