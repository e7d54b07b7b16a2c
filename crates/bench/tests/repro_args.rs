//! `repro` refuses out-of-range flag values while parsing its arguments:
//! it exits non-zero, names the flag, and prints no report, so a zero
//! worker or shard count never reaches the engine after a full world
//! generation and training run.

use std::process::Command;

/// Run `repro` with `args`; its exit success, stderr and stdout.
fn repro(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn out_of_range_counts_and_rates_are_refused_before_the_run() {
    for (args, message) in [
        (
            &["--workers", "0"][..],
            "--workers must be at least 1, got 0",
        ),
        (&["--shards", "0"], "--shards must be at least 1, got 0"),
        (
            &["--trace-sample", "1000001"],
            "--trace-sample must be at most 1000000 per million, got 1000001",
        ),
    ] {
        // A scale that would run for seconds if the parse let it through.
        let args = [&["--scale", "0.02", "--table", "t1"][..], args].concat();
        let (ok, stderr, stdout) = repro(&args);
        assert!(!ok, "{args:?} exited successfully");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed a report: {stdout}");
    }
}

#[test]
fn in_range_values_still_parse() {
    // `--help` exits 0 after parsing everything before it.
    let (ok, stderr, stdout) = repro(&[
        "--workers",
        "1",
        "--shards",
        "1",
        "--trace-sample",
        "1000000",
        "--help",
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("--trace-sample"), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
}
