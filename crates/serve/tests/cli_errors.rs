//! Error-path contract for the `serve` binary: bad input must produce a
//! one-line diagnostic on stderr and a nonzero exit code, never a panic
//! backtrace. Exit 2 means "the command line was wrong", exit 1 means "the
//! command line was fine but the work failed" (IO, malformed data) —
//! scripts and CI distinguish the two. (`loadgen`, the load generator,
//! lives with the bench binaries and is pinned in their suite.)

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn CLI under test")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Every failure in this suite must be a clean diagnostic, not a panic:
/// no unwind chatter on stderr, and the requested exit code.
fn assert_clean_failure(out: &Output, expect_code: i32, needle: &str) {
    let err = stderr(out);
    assert_eq!(
        out.status.code(),
        Some(expect_code),
        "expected exit {expect_code}, got {:?}; stderr:\n{err}",
        out.status.code()
    );
    assert!(err.contains(needle), "stderr missing {needle:?}:\n{err}");
    for marker in ["panicked", "RUST_BACKTRACE", "unwrap", "thread '"] {
        assert!(
            !err.contains(marker),
            "stderr looks like a panic (found {marker:?}):\n{err}"
        );
    }
}

const SERVE: &str = env!("CARGO_BIN_EXE_serve");

#[test]
fn serve_unknown_generator_is_a_usage_error() {
    let out = run(SERVE, &["build", "--gen", "fractal", "--out", "/dev/null"]);
    assert_clean_failure(&out, 2, "unknown generator \"fractal\"");
}

#[test]
fn serve_gps_generator_requires_three_dims() {
    let out = run(
        SERVE,
        &["build", "--gen", "gps", "--dims", "2", "--out", "/dev/null"],
    );
    assert_clean_failure(&out, 2, "--gen gps is 3-dimensional");
}

#[test]
fn serve_unparseable_flag_value_is_a_usage_error() {
    let out = run(SERVE, &["build", "--n", "lots", "--out", "/dev/null"]);
    assert_clean_failure(&out, 2, "invalid value \"lots\" for --n");
}

#[test]
fn serve_unsupported_dims_is_a_usage_error() {
    let out = run(SERVE, &["gen-points", "--dims", "4", "--out", "/dev/null"]);
    assert_clean_failure(&out, 2, "unsupported dimensionality 4");
}

#[test]
fn serve_missing_model_file_is_a_runtime_error() {
    let out = run(
        SERVE,
        &[
            "serve",
            "--model",
            "/nonexistent/model.pcsm",
            "--addr",
            "127.0.0.1:0",
        ],
    );
    assert_clean_failure(&out, 1, "load /nonexistent/model.pcsm");
}

#[test]
fn serve_missing_models_dir_is_a_runtime_error() {
    let out = run(
        SERVE,
        &[
            "serve",
            "--models-dir",
            "/nonexistent-dir",
            "--addr",
            "127.0.0.1:0",
        ],
    );
    assert_clean_failure(&out, 1, "scan /nonexistent-dir");
}

#[test]
fn serve_missing_manifest_is_a_runtime_error() {
    let out = run(
        SERVE,
        &[
            "serve",
            "--manifest",
            "/nonexistent/models.json",
            "--addr",
            "127.0.0.1:0",
        ],
    );
    assert_clean_failure(&out, 1, "manifest /nonexistent/models.json");
}

#[test]
fn serve_query_missing_model_is_a_runtime_error() {
    let out = run(SERVE, &["query", "--model", "/nonexistent/model.pcsm"]);
    assert_clean_failure(&out, 1, "read /nonexistent/model.pcsm");
}

#[test]
fn serve_build_missing_points_file_is_a_runtime_error() {
    let out = run(
        SERVE,
        &[
            "build",
            "--points-file",
            "/nonexistent/points.pcls",
            "--out",
            "/dev/null",
        ],
    );
    assert_clean_failure(&out, 1, "read /nonexistent/points.pcls");
}

#[test]
fn serve_no_subcommand_prints_usage() {
    let out = run(SERVE, &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}
