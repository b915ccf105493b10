//! Runs the benchmark's smoke mode: every workload on tiny inputs
//! (the Figure 3 log and a 200-instance clinic log), traced and untraced.

use std::process::Command;

#[test]
fn smoke_mode_emits_every_metric_and_no_failure() {
    let out = Command::new(env!("CARGO_BIN_EXE_wlqbench"))
        .arg("--smoke")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.ends_with("smoke ok\n"), "{stdout}");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "clinic_cold", "--seed", "x", "--seconds", "1"],
        &[
            "--workload",
            "clinic_cold",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--seed", "1", "--seconds", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_wlqbench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
