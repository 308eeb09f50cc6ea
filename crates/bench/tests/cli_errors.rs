//! Error-path contract for the bench binaries (`dyn_bench`,
//! `kernel_bench`, `compare_bench`, `repro`): bad input produces a one-line
//! `<bin>: error:` diagnostic and a nonzero exit code, never a panic
//! backtrace. Exit 2 means "the command line was wrong", exit 1 means "the
//! command line was fine but the work failed"; a reader that closes stdout
//! early ends the run with exit 0.

use std::process::{Command, Output, Stdio};

struct Bin {
    name: &'static str,
    exe: &'static str,
}

const DYN_BENCH: Bin = Bin {
    name: "dyn_bench",
    exe: env!("CARGO_BIN_EXE_dyn_bench"),
};
const KERNEL_BENCH: Bin = Bin {
    name: "kernel_bench",
    exe: env!("CARGO_BIN_EXE_kernel_bench"),
};
const COMPARE_BENCH: Bin = Bin {
    name: "compare_bench",
    exe: env!("CARGO_BIN_EXE_compare_bench"),
};
const REPRO: Bin = Bin {
    name: "repro",
    exe: env!("CARGO_BIN_EXE_repro"),
};

impl Bin {
    fn command(&self) -> Command {
        let mut cmd = Command::new(self.exe);
        cmd.env_remove("BENCH_GATE_SKIP");
        cmd
    }

    fn run(&self, args: &[&str]) -> Output {
        self.command()
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", self.name))
    }

    /// No unwind chatter on stderr, the requested exit code, and the
    /// diagnostic on one `<bin>: error:` line.
    fn assert_clean_failure(&self, out: &Output, expect_code: i32, needle: &str) {
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(expect_code),
            "expected exit {expect_code}, got {:?}; stderr:\n{err}",
            out.status.code()
        );
        let prefix = format!("{}: error:", self.name);
        assert!(
            err.lines()
                .any(|l| l.starts_with(&prefix) && l.contains(needle)),
            "stderr missing a `{prefix}` line with {needle:?}:\n{err}"
        );
        for marker in ["panicked", "RUST_BACKTRACE", "unwrap", "thread '"] {
            assert!(
                !err.contains(marker),
                "stderr looks like a panic (found {marker:?}):\n{err}"
            );
        }
    }

    fn assert_fails(&self, args: &[&str], expect_code: i32, needle: &str) {
        self.assert_clean_failure(&self.run(args), expect_code, needle);
    }

    /// Hang up stdout before the first line is written: every print hits
    /// EPIPE, and the run must still end with a quiet exit 0.
    fn assert_quiet_on_closed_stdout(&self, cmd: &mut Command) {
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", self.name));
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for child");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "stderr:\n{err}");
        assert!(err.is_empty(), "expected a quiet exit, stderr:\n{err}");
    }
}

#[test]
fn unknown_argument_is_a_usage_error() {
    DYN_BENCH.assert_fails(&["--fast"], 2, "unknown argument \"--fast\"");
}

#[test]
fn unparseable_and_missing_values_are_usage_errors() {
    DYN_BENCH.assert_fails(&["--n", "lots"], 2, "invalid value \"lots\" for --n");
    DYN_BENCH.assert_fails(&["--batches"], 2, "--batches needs a value");
    DYN_BENCH.assert_fails(&["--out"], 2, "--out needs a value");
}

#[test]
fn out_of_range_values_are_usage_errors() {
    DYN_BENCH.assert_fails(&["--min-pts", "0"], 2, "--min-pts must be at least 1");
    DYN_BENCH.assert_fails(&["--batch-size", "0"], 2, "--batch-size");
    DYN_BENCH.assert_fails(&["--n", "1"], 2, "--n too small");
    DYN_BENCH.assert_fails(
        &["--min-cluster-size", "1"],
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
    let out = DYN_BENCH.run(&[
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
    DYN_BENCH.assert_clean_failure(&out, 1, "create");
}

#[test]
fn closed_stdout_exits_cleanly() {
    DYN_BENCH.assert_quiet_on_closed_stdout(DYN_BENCH.command().args([
        "--n",
        "300",
        "--batches",
        "2",
        "--batch-size",
        "8",
    ]));
}

#[test]
fn kernel_bench_unknown_argument_is_a_usage_error() {
    KERNEL_BENCH.assert_fails(&["--fast"], 2, "unknown argument \"--fast\"");
}

#[test]
fn kernel_bench_bad_values_are_usage_errors() {
    KERNEL_BENCH.assert_fails(&["--reps", "many"], 2, "invalid value \"many\" for --reps");
    KERNEL_BENCH.assert_fails(&["--reps", "0"], 2, "--reps must be at least 1");
    KERNEL_BENCH.assert_fails(&["--out"], 2, "--out needs a value");
}

#[test]
fn compare_bench_unknown_argument_is_a_usage_error() {
    COMPARE_BENCH.assert_fails(&["--fast"], 2, "unknown argument \"--fast\"");
}

#[test]
fn compare_bench_bad_values_are_usage_errors() {
    COMPARE_BENCH.assert_fails(&[], 2, "--baseline is required");
    COMPARE_BENCH.assert_fails(
        &["--baseline", "b.json", "--tolerance", "lots"],
        2,
        "invalid value \"lots\" for --tolerance",
    );
    COMPARE_BENCH.assert_fails(
        &["--baseline", "b.json", "--tolerance", "1.5"],
        2,
        "tolerance must be in [0, 1)",
    );
    COMPARE_BENCH.assert_fails(
        &["--baseline", "b.json", "--serving", "t4"],
        2,
        "--serving takes LABEL=FILE",
    );
    COMPARE_BENCH.assert_fails(
        &["--baseline", "b.json", "--min-ratio", "t4"],
        2,
        "must be NUM/DEN=MIN",
    );
}

#[test]
fn compare_bench_unreadable_baseline_is_a_runtime_error() {
    let missing = std::env::temp_dir().join(format!(
        "compare-bench-cli-missing-{}.json",
        std::process::id()
    ));
    COMPARE_BENCH.assert_fails(&["--baseline", missing.to_str().unwrap()], 1, "cannot read");
}

#[test]
fn compare_bench_closed_stdout_exits_cleanly() {
    COMPARE_BENCH
        .assert_quiet_on_closed_stdout(COMPARE_BENCH.command().env("BENCH_GATE_SKIP", "1"));
}

#[test]
fn repro_unknown_argument_is_a_usage_error() {
    REPRO.assert_fails(&["--fast"], 2, "unknown argument \"--fast\"");
}

#[test]
fn repro_bad_values_are_usage_errors() {
    REPRO.assert_fails(
        &["--scale", "lots"],
        2,
        "invalid value \"lots\" for --scale",
    );
    REPRO.assert_fails(&["--reps"], 2, "--reps needs a value");
    REPRO.assert_fails(&["--threads", "0"], 2, "--threads must be at least 1");
    REPRO.assert_fails(&["--cluster-eps", ""], 2, "for --cluster-eps");
    REPRO.assert_fails(&["--max-memory", "lots"], 2, "--max-memory");
}

#[test]
fn repro_unknown_experiment_is_a_usage_error() {
    // A typo used to run nothing and exit 0.
    REPRO.assert_fails(&["tabel2"], 2, "unknown experiment \"tabel2\"");
}

#[test]
fn repro_help_on_closed_stdout_exits_cleanly() {
    REPRO.assert_quiet_on_closed_stdout(REPRO.command().arg("--help"));
}

#[test]
fn repro_unwritable_report_is_a_runtime_error() {
    // The report's parent directory is a regular file.
    let blocker = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let out_dir = blocker.join("out");
    let out = REPRO.run(&[
        "memory",
        "--scale",
        "0.001",
        "--datasets",
        "2D-SS-varden",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    std::fs::remove_file(&blocker).ok();
    REPRO.assert_clean_failure(&out, 1, "write");
}
