//! Error-path contract for the `dyn_bench` binary: bad input produces a
//! one-line `dyn_bench: error:` diagnostic and a nonzero exit code, never
//! a panic backtrace. Exit 2 means "the command line was wrong", exit 1
//! means "the command line was fine but the work failed"; a reader that
//! closes stdout early ends the run with exit 0.

use std::process::{Command, Output, Stdio};

const DYN_BENCH: &str = env!("CARGO_BIN_EXE_dyn_bench");

fn run(args: &[&str]) -> Output {
    Command::new(DYN_BENCH)
        .args(args)
        .output()
        .expect("spawn dyn_bench")
}

/// No unwind chatter on stderr, the requested exit code, and the
/// diagnostic on one `dyn_bench: error:` line.
fn assert_clean_failure(out: &Output, expect_code: i32, needle: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(expect_code),
        "expected exit {expect_code}, got {:?}; stderr:\n{err}",
        out.status.code()
    );
    assert!(
        err.lines()
            .any(|l| l.starts_with("dyn_bench: error:") && l.contains(needle)),
        "stderr missing a `dyn_bench: error:` line with {needle:?}:\n{err}"
    );
    for marker in ["panicked", "RUST_BACKTRACE", "unwrap", "thread '"] {
        assert!(
            !err.contains(marker),
            "stderr looks like a panic (found {marker:?}):\n{err}"
        );
    }
}

#[test]
fn unknown_argument_is_a_usage_error() {
    assert_clean_failure(&run(&["--fast"]), 2, "unknown argument \"--fast\"");
}

#[test]
fn unparseable_and_missing_values_are_usage_errors() {
    assert_clean_failure(&run(&["--n", "lots"]), 2, "invalid value \"lots\" for --n");
    assert_clean_failure(&run(&["--batches"]), 2, "--batches needs a value");
    assert_clean_failure(&run(&["--out"]), 2, "--out needs a value");
}

#[test]
fn out_of_range_values_are_usage_errors() {
    assert_clean_failure(&run(&["--min-pts", "0"]), 2, "--min-pts must be at least 1");
    assert_clean_failure(&run(&["--batch-size", "0"]), 2, "--batch-size");
    assert_clean_failure(&run(&["--n", "1"]), 2, "--n too small");
    assert_clean_failure(
        &run(&["--min-cluster-size", "1"]),
        2,
        "--min-cluster-size must be at least 2",
    );
}

#[test]
fn unwritable_output_is_a_runtime_error() {
    // The output's parent directory is a regular file.
    let blocker = std::env::temp_dir().join(format!("dyn-bench-cli-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let out_path = blocker.join("dynamic.json");
    let out = run(&[
        "--n",
        "200",
        "--batches",
        "1",
        "--batch-size",
        "4",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&blocker).ok();
    assert_clean_failure(&out, 1, "create");
}

#[test]
fn closed_stdout_exits_cleanly() {
    let mut child = Command::new(DYN_BENCH)
        .args(["--n", "300", "--batches", "2", "--batch-size", "8"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dyn_bench");
    // Hang up before the first line is written: every print hits EPIPE.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for dyn_bench");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{err}");
    assert!(err.is_empty(), "expected a quiet exit, stderr:\n{err}");
}
