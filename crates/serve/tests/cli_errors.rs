//! Error-path contract for the `serve` binary: bad input must produce a
//! one-line diagnostic on stderr and a nonzero exit code, never a panic
//! backtrace. Exit 2 means "the command line was wrong", exit 1 means "the
//! command line was fine but the work failed" (IO, malformed data) —
//! scripts and CI distinguish the two. (`loadgen`, the load generator,
//! lives with the bench binaries and is pinned in their suite.)

use std::process::{Command, Output, Stdio};

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

/// Exactly one diagnostic line on stderr.
fn assert_one_line(out: &Output) {
    let err = stderr(out);
    assert_eq!(err.lines().count(), 1, "expected one stderr line:\n{err}");
}

#[test]
fn serve_unknown_flag_is_a_usage_error() {
    // A typo must not silently fall back to the default (here minPts=10).
    let out = run(
        SERVE,
        &[
            "build",
            "--gen",
            "uniform",
            "--dims",
            "2",
            "--n",
            "500",
            "--minpt",
            "3",
            "--bogus",
            "1",
            "--out",
            "/dev/null",
        ],
    );
    assert_clean_failure(&out, 2, "serve: error: unknown flag \"--minpt\"");
    assert_one_line(&out);
    // Boolean flags are checked too, per subcommand.
    let out = run(SERVE, &["query", "--model", "m.pcsm", "--lables"]);
    assert_clean_failure(&out, 2, "unknown flag \"--lables\" for `serve query`");
    assert_one_line(&out);
    let out = run(SERVE, &["gen-points", "--labels", "--out", "/dev/null"]);
    assert_clean_failure(&out, 2, "unknown flag \"--labels\" for `serve gen-points`");
}

#[test]
fn serve_removed_max_live_pairs_flag_is_a_usage_error() {
    let out = run(
        SERVE,
        &[
            "build",
            "--gen",
            "uniform",
            "--n",
            "500",
            "--max-live-pairs",
            "200000",
            "--out",
            "/dev/null",
        ],
    );
    assert_clean_failure(&out, 2, "unknown flag \"--max-live-pairs\"");
    assert_one_line(&out);
}

#[test]
fn serve_build_rejects_too_small_minpts_and_cluster_size() {
    // Both would otherwise reach a library assertion mid-build.
    for (flag, value, needle) in [
        ("--minpts", "0", "--minpts must be at least 1 (got 0)"),
        (
            "--min-cluster-size",
            "0",
            "--min-cluster-size must be at least 2 (got 0)",
        ),
        (
            "--min-cluster-size",
            "1",
            "--min-cluster-size must be at least 2 (got 1)",
        ),
    ] {
        let out = run(
            SERVE,
            &[
                "build",
                "--gen",
                "uniform",
                "--dims",
                "2",
                "--n",
                "500",
                flag,
                value,
                "--out",
                "/dev/null",
            ],
        );
        assert_clean_failure(&out, 2, &format!("serve: error: {needle}"));
        assert_one_line(&out);
    }
}

#[test]
fn serve_build_empty_points_file_is_a_runtime_error() {
    let path = std::env::temp_dir().join(format!("parclust-cli-empty-{}.pcls", std::process::id()));
    parclust_data::write_chunked::<2>(&path, &[], 8).unwrap();
    let path_str = path.to_str().unwrap().to_string();
    let out = run(
        SERVE,
        &["build", "--points-file", &path_str, "--out", "/dev/null"],
    );
    std::fs::remove_file(&path).ok();
    assert_clean_failure(&out, 1, "holds no points");
    assert_one_line(&out);
}

/// `serve query ... | head -1`: the reader hangs up after the first line,
/// so a later print hits EPIPE. That is a quiet exit 0, not a panic.
#[test]
fn serve_query_exits_quietly_on_closed_stdout() {
    let path = std::env::temp_dir().join(format!("parclust-cli-query-{}.pcsm", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let built = run(
        SERVE,
        &[
            "build", "--gen", "uniform", "--dims", "2", "--n", "20000", "--out", &path_str,
        ],
    );
    assert!(built.status.success(), "build failed:\n{}", stderr(&built));
    let mut child = Command::new(SERVE)
        .args(["query", "--model", &path_str, "--k", "5", "--labels"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve query");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for serve query");
    std::fs::remove_file(&path).ok();
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{err}");
    assert!(!err.contains("panicked"), "stderr:\n{err}");
}
