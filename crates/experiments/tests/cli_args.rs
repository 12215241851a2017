//! The `repro` binary answers an out-of-domain malicious ratio ρ with its
//! usage message and exit code 2 — never an allocation abort, a panic, or
//! a silently run nonsense cell.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn assert_usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert!(stderr.contains("usage:"), "{what}: {stderr}");
}

#[test]
fn cell_rejects_rho_outside_the_unit_interval() {
    for rho in ["1e12", "inf", "NaN", "-0.5", "1.5", "x"] {
        let out = repro(&[
            "cell",
            "--population",
            "tiny",
            "--attack",
            "random",
            "--defense",
            "none",
            "--rho",
            rho,
        ]);
        assert_usage_error(&out, &format!("--rho {rho}"));
    }
}

#[test]
fn matrix_rejects_rho_lists_with_a_bad_entry() {
    for rhos in ["0.01,inf", "0.01,NaN", "-0.5", "0.01,1e12"] {
        let out = repro(&["matrix", "--population", "tiny", "--rhos", rhos]);
        assert_usage_error(&out, &format!("--rhos {rhos}"));
    }
}
