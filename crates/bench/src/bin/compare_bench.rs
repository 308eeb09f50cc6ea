//! CI bench-regression gate: diff a fresh smoke run against the committed
//! baseline and exit nonzero on a >tolerance slowdown in any gated metric.
//!
//! ```sh
//! compare_bench --baseline BENCH_pr5.json \
//!     --rows bench_results/repro.json \
//!     --serving t1=bench_results/serving_t1.json \
//!     --serving t4=bench_results/serving_t4.json \
//!     --serving t4bin=bench_results/serving_t4bin.json \
//!     --min-ratio t4bin/t4=1.5 \
//!     [--tolerance 0.25]
//! ```
//!
//! Gated metrics: table2 speedup ratios, serving assign throughput,
//! kernel vectorization speedups (`--kernels kernels.json`), and
//! incremental-mutation throughput (`--dynamic dyn.json`).
//! `--min-ratio NUM/DEN=MIN` additionally requires the current run's
//! `assign_points_per_sec` under label NUM to be at least MIN× the one
//! under DEN (the binary-vs-JSON protocol gate), and
//! `--kernel-floor NAME=MIN` pins an absolute floor on the current run's
//! `kernels/NAME/speedup_vs_scalar` (e.g. `bccp_pair_loop=1.3`). Override
//! knobs (documented in the README):
//! * `BENCH_GATE_SKIP=1` — skip the gate entirely (emergency landing).
//! * `BENCH_GATE_TOLERANCE=0.4` — widen/narrow the threshold without a
//!   workflow edit; the `--tolerance` flag wins over the env var.
//! * `BENCH_RATIO_MIN=1.2` — override the minimum of every `--min-ratio`.
//! * `BENCH_KERNEL_MIN=1.1` — override the minimum of every
//!   `--kernel-floor`.
//!
//! Usage errors exit 2 and runtime failures (unreadable inputs, a
//! regression) exit 1, each with `compare_bench: error:` lines on stderr;
//! a closed stdout ends the run quietly.

use parclust_bench::cli::Cli;
use parclust_bench::gate::{
    baseline_json, compare, metrics_from_baseline, metrics_from_dynamic, metrics_from_kernels,
    metrics_from_loadgen, metrics_from_rows, KernelFloor, Metric, RatioCheck, DEFAULT_TOLERANCE,
};

const CLI: Cli = Cli("compare_bench");

const USAGE: &str = "usage: compare_bench --baseline FILE [--rows FILE]... \
                     [--serving LABEL=FILE]... [--kernels FILE] [--dynamic FILE] \
                     [--min-ratio NUM/DEN=MIN]... [--kernel-floor NAME=MIN]... [--tolerance F] \
                     [--write-baseline FILE [--note TEXT]]";

struct Opts {
    baseline: std::path::PathBuf,
    rows: Vec<std::path::PathBuf>,
    serving: Vec<(String, std::path::PathBuf)>,
    kernels: Option<std::path::PathBuf>,
    dynamic: Option<std::path::PathBuf>,
    ratios: Vec<RatioCheck>,
    kernel_floors: Vec<KernelFloor>,
    tolerance: f64,
    /// Where to write this run's inputs re-assembled as a baseline
    /// document (`BENCH_prN.json` shape) — the refresh candidate CI
    /// uploads with its bench artifacts.
    write_baseline: Option<std::path::PathBuf>,
    /// Free-form provenance note embedded in the written baseline.
    note: String,
}

/// A numeric override from the environment; unset or unparseable is `None`.
fn env_f64(var: &str) -> Option<f64> {
    std::env::var(var).ok().and_then(|v| v.trim().parse().ok())
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        baseline: std::path::PathBuf::new(),
        rows: Vec::new(),
        serving: Vec::new(),
        kernels: None,
        dynamic: None,
        ratios: Vec::new(),
        kernel_floors: Vec::new(),
        tolerance: env_f64("BENCH_GATE_TOLERANCE").unwrap_or(DEFAULT_TOLERANCE),
        write_baseline: None,
        note: String::new(),
    };
    let mut args = std::env::args().skip(1);
    let mut have_baseline = false;
    while let Some(a) = args.next() {
        let flag = a.as_str();
        match flag {
            "--baseline" => {
                opts.baseline = CLI.value(&mut args, flag).into();
                have_baseline = true;
            }
            "--rows" => opts.rows.push(CLI.value(&mut args, flag).into()),
            "--serving" => {
                let spec = CLI.value(&mut args, flag);
                let Some((label, file)) = spec.split_once('=') else {
                    CLI.bad_arg(format_args!(
                        "--serving takes LABEL=FILE (e.g. t4=serving_t4.json), got {spec:?}"
                    ))
                };
                opts.serving.push((label.to_string(), file.into()));
            }
            "--kernels" => opts.kernels = Some(CLI.value(&mut args, flag).into()),
            "--dynamic" => opts.dynamic = Some(CLI.value(&mut args, flag).into()),
            "--kernel-floor" => {
                let spec = CLI.value(&mut args, flag);
                let mut floor = KernelFloor::parse(&spec).unwrap_or_else(|e| CLI.bad_arg(e));
                if let Some(min) = env_f64("BENCH_KERNEL_MIN") {
                    floor.min = min;
                }
                opts.kernel_floors.push(floor);
            }
            "--min-ratio" => {
                let spec = CLI.value(&mut args, flag);
                let mut check = RatioCheck::parse(&spec).unwrap_or_else(|e| CLI.bad_arg(e));
                if let Some(min) = env_f64("BENCH_RATIO_MIN") {
                    check.min = min;
                }
                opts.ratios.push(check);
            }
            "--tolerance" => opts.tolerance = CLI.parse(&mut args, flag),
            "--write-baseline" => {
                opts.write_baseline = Some(CLI.value(&mut args, flag).into());
            }
            "--note" => opts.note = CLI.value(&mut args, flag),
            "--help" | "-h" => {
                CLI.say(USAGE);
                std::process::exit(0);
            }
            other => CLI.bad_arg(format_args!("unknown argument {other:?} (see --help)")),
        }
    }
    if !have_baseline {
        CLI.bad_arg("--baseline is required");
    }
    if !(0.0..1.0).contains(&opts.tolerance) {
        CLI.bad_arg("tolerance must be in [0, 1)");
    }
    opts
}

fn load_json(path: &std::path::Path) -> serde_json::Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| CLI.fail(format_args!("cannot read {}: {e}", path.display())));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| CLI.fail(format_args!("cannot parse {}: {e}", path.display())))
}

fn main() {
    if std::env::var("BENCH_GATE_SKIP").is_ok_and(|v| v == "1") {
        CLI.say("compare_bench: BENCH_GATE_SKIP=1 — gate skipped");
        return;
    }
    let opts = parse_args();

    let baseline = metrics_from_baseline(&load_json(&opts.baseline));
    let row_sets: Vec<serde_json::Value> = opts.rows.iter().map(|p| load_json(p)).collect();
    let serving_blobs: Vec<(String, serde_json::Value)> = opts
        .serving
        .iter()
        .map(|(label, path)| (label.clone(), load_json(path)))
        .collect();
    let kernels_blob = opts.kernels.as_deref().map(load_json);
    let dynamic_blob = opts.dynamic.as_deref().map(load_json);
    let mut current: Vec<Metric> = Vec::new();
    for rows in &row_sets {
        current.extend(metrics_from_rows(rows));
    }
    for (label, blob) in &serving_blobs {
        current.extend(metrics_from_loadgen(label, blob));
    }
    if let Some(kernels) = &kernels_blob {
        current.extend(metrics_from_kernels(kernels));
    }
    if let Some(dynamic) = &dynamic_blob {
        current.extend(metrics_from_dynamic(dynamic));
    }

    // Write the refresh candidate before gating: a regressed run's numbers
    // are exactly the ones someone debugging the regression wants to see,
    // and committing a candidate is always a deliberate human step.
    if let Some(path) = &opts.write_baseline {
        let doc = baseline_json(
            &opts.note,
            &row_sets,
            &serving_blobs,
            kernels_blob.as_ref(),
            dynamic_blob.as_ref(),
        );
        CLI.write_file(path, &doc.to_json_string_pretty());
        CLI.say(format_args!(
            "compare_bench: wrote baseline candidate {}",
            path.display()
        ));
    }

    let outcome = compare(&baseline, &current, opts.tolerance);
    CLI.say(format_args!(
        "bench gate vs {} (tolerance {:.0}%): {} baseline metrics, {} current, {} shared gated",
        opts.baseline.display(),
        opts.tolerance * 100.0,
        baseline.len(),
        current.len(),
        outcome.shared_gated,
    ));
    CLI.say(format_args!(
        "{:<60} {:>14} {:>14} {:>8}  status",
        "metric", "baseline", "current", "ratio"
    ));
    for c in &outcome.comparisons {
        let status = if c.regressed {
            "REGRESSED"
        } else if !c.gated {
            "info"
        } else {
            "ok"
        };
        CLI.say(format_args!(
            "{:<60} {:>14.3} {:>14.3} {:>7.2}x  {status}",
            c.key, c.baseline, c.current, c.ratio
        ));
    }
    if outcome.shared_gated == 0 {
        CLI.fail(
            "no gated metric is shared between baseline and current \
             — the gate wiring is broken (wrong files or labels?)",
        );
    }
    if outcome.failures > 0 {
        CLI.fail(format_args!(
            "{} metric(s) regressed more than {:.0}% below baseline \
             (set BENCH_GATE_TOLERANCE to widen, BENCH_GATE_SKIP=1 to bypass)",
            outcome.failures,
            opts.tolerance * 100.0
        ));
    }
    let mut ratio_failures = 0;
    for check in &opts.ratios {
        match check.evaluate(&current) {
            Ok(ratio) => CLI.say(format_args!(
                "ratio {}/{}: {ratio:.2}x (minimum {:.2}x)  ok",
                check.numerator, check.denominator, check.min
            )),
            Err(msg) => {
                eprintln!(
                    "compare_bench: error: ratio check failed: {msg} \
                     (set BENCH_RATIO_MIN to lower, BENCH_GATE_SKIP=1 to bypass)"
                );
                ratio_failures += 1;
            }
        }
    }
    if ratio_failures > 0 {
        std::process::exit(1);
    }
    let mut floor_failures = 0;
    for floor in &opts.kernel_floors {
        match floor.evaluate(&current) {
            Ok(speedup) => CLI.say(format_args!(
                "kernel floor {}: {speedup:.2}x vs scalar (floor {:.2}x)  ok",
                floor.kernel, floor.min
            )),
            Err(msg) => {
                eprintln!(
                    "compare_bench: error: kernel floor failed: {msg} \
                     (set BENCH_KERNEL_MIN to lower, BENCH_GATE_SKIP=1 to bypass)"
                );
                floor_failures += 1;
            }
        }
    }
    if floor_failures > 0 {
        std::process::exit(1);
    }
    CLI.say("compare_bench: gate passed");
}
