//! CI bench-regression gate: diff a fresh smoke run against the committed
//! baseline and exit nonzero on a >tolerance slowdown in any gated metric.
//!
//! ```sh
//! compare_bench --baseline BENCH_pr10.json \
//!     --current bench_results/repro.json \
//!     --current t4json=bench_results/serving_t4json.json \
//!     --current t4bin=bench_results/serving_t4bin.json \
//!     --require 'serving/t4bin/assign_points_per_sec>=1.5*serving/t4json/assign_points_per_sec' \
//!     [--tolerance 0.25] [--write-baseline FILE [--note TEXT]]
//! ```
//!
//! Every input carries its own `"metrics"` list (see [`parclust_bench::gate`]):
//! the bench binary that wrote it decides what is gated. `--current
//! LABEL=FILE` puts LABEL in as each key's second segment, so the same
//! loadgen report shape yields `serving/t4/…` and `serving/t4bin/…`.
//! `--require KEY>=MIN` or `KEY>=F*KEY` checks the current run alone (an
//! absolute floor, or a ratio between two of its metrics).
//! `--write-baseline` writes the current metrics as a `{note, metrics}`
//! refresh candidate.
//!
//! Usage errors exit 2 and runtime failures exit 1, each with
//! `compare_bench: error:` lines on stderr. A regression, a failed
//! requirement, an unreadable input, a value that is not a finite number,
//! a key two `--current` files share and a unit that differs from the
//! baseline's are runtime failures. A closed stdout ends the run quietly.

use parclust_bench::cli::Cli;
use parclust_bench::gate::{
    baseline_json, compare, join_current, read_metrics, Require, DEFAULT_TOLERANCE,
};
use std::path::{Path, PathBuf};

const CLI: Cli = Cli("compare_bench");

const USAGE: &str = "usage: compare_bench --baseline FILE [--current [LABEL=]FILE]... \
                     [--require KEY>=MIN | KEY>=F*KEY]... [--tolerance F] \
                     [--write-baseline FILE [--note TEXT]]";

struct Opts {
    baseline: PathBuf,
    /// One `(label, file)` per `--current`.
    current: Vec<(Option<String>, PathBuf)>,
    requires: Vec<Require>,
    tolerance: f64,
    /// Where to write the current metrics as a `{note, metrics}` baseline
    /// document: the refresh candidate CI uploads with its bench artifacts.
    write_baseline: Option<PathBuf>,
    /// Free-form provenance note embedded in the written baseline.
    note: String,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        baseline: PathBuf::new(),
        current: Vec::new(),
        requires: Vec::new(),
        tolerance: DEFAULT_TOLERANCE,
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
            "--current" => {
                let spec = CLI.value(&mut args, flag);
                let (label, file) = match spec.split_once('=') {
                    Some((label, file)) => (Some(label.to_string()), file),
                    None => (None, spec.as_str()),
                };
                if file.is_empty() || label.as_ref().is_some_and(|l| l.is_empty()) {
                    CLI.bad_arg(format_args!(
                        "--current takes [LABEL=]FILE (e.g. t4=serving_t4.json), got {spec:?}"
                    ));
                }
                opts.current.push((label, file.into()));
            }
            "--require" => {
                let spec = CLI.value(&mut args, flag);
                opts.requires
                    .push(Require::parse(&spec).unwrap_or_else(|e| CLI.bad_arg(e)));
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

/// The metrics list of one input file, with `label` put into its keys.
fn read(path: &Path, label: Option<&str>) -> Vec<parclust_bench::gate::Metric> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| CLI.fail(format_args!("cannot read {}: {e}", path.display())));
    let doc = serde_json::from_str(&text)
        .unwrap_or_else(|e| CLI.fail(format_args!("cannot parse {}: {e}", path.display())));
    read_metrics(&doc, label).unwrap_or_else(|e| CLI.fail(format_args!("{}: {e}", path.display())))
}

fn main() {
    let opts = parse_args();

    let baseline = read(&opts.baseline, None);
    let runs = opts
        .current
        .iter()
        .map(|(label, path)| (path.display().to_string(), read(path, label.as_deref())))
        .collect();
    let current = join_current(&baseline, runs).unwrap_or_else(|e| CLI.fail(e));

    // Write the refresh candidate before gating: a regressed run's numbers
    // are exactly the ones someone debugging the regression wants to see,
    // and committing a candidate is always a deliberate human step.
    if let Some(path) = &opts.write_baseline {
        let doc = baseline_json(&opts.note, &current);
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
            "{} metric(s) regressed more than {:.0}% below baseline",
            outcome.failures,
            opts.tolerance * 100.0
        ));
    }
    let mut unmet = 0;
    for req in &opts.requires {
        match req.evaluate(&current) {
            Ok(observed) => CLI.say(format_args!("require {req}: {observed:.2}  ok")),
            Err(msg) => {
                eprintln!("compare_bench: error: requirement failed: {msg}");
                unmet += 1;
            }
        }
    }
    if unmet > 0 {
        std::process::exit(1);
    }
    CLI.say("compare_bench: gate passed");
}
