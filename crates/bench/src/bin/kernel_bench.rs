//! Distance-kernel micro-bench for CI: run the SoA lane kernels against
//! the scalar gather reference and emit the `kernels` JSON section the
//! bench gate consumes.
//!
//! ```sh
//! kernel_bench --out bench_results/kernels.json [--reps 7]
//! ```
//!
//! The output maps kernel names to `{lane_secs, scalar_secs,
//! speedup_vs_scalar}`; `compare_bench --kernels` gates the speedups
//! against the committed baseline and `--kernel-floor` pins the absolute
//! minimum (CI uses `bccp_pair_loop=1.3`). Speedups are same-machine
//! ratios, so they transfer across CI hardware where raw seconds cannot.
//!
//! Usage errors exit 2 and runtime failures exit 1, each with one
//! `kernel_bench: error:` line on stderr; a closed stdout ends the run
//! quietly.

use parclust_bench::cli::Cli;
use parclust_bench::kernels::kernels_json;

const CLI: Cli = Cli("kernel_bench");

fn main() {
    let mut out: Option<std::path::PathBuf> = None;
    let mut reps = 7usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let flag = a.as_str();
        match flag {
            "--out" => out = Some(CLI.value(&mut args, flag).into()),
            "--reps" => reps = CLI.parse(&mut args, flag),
            "--help" | "-h" => {
                CLI.say("usage: kernel_bench [--out FILE] [--reps N]");
                return;
            }
            other => CLI.bad_arg(format_args!("unknown argument {other:?} (see --help)")),
        }
    }
    if reps == 0 {
        CLI.bad_arg("--reps must be at least 1");
    }

    let doc = kernels_json(reps);
    let text = doc.to_json_string_pretty();
    if let Some(map) = doc.as_object() {
        CLI.say(format_args!(
            "{:<20} {:>12} {:>12} {:>8}",
            "kernel", "lane", "scalar", "speedup"
        ));
        for (kernel, blob) in map {
            let f = |k: &str| {
                blob.get(k)
                    .and_then(serde_json::Value::as_f64)
                    .unwrap_or(f64::NAN)
            };
            CLI.say(format_args!(
                "{kernel:<20} {:>10.2}ms {:>10.2}ms {:>7.2}x",
                f("lane_secs") * 1e3,
                f("scalar_secs") * 1e3,
                f("speedup_vs_scalar"),
            ));
        }
    }
    match out {
        Some(path) => {
            CLI.write_file(&path, &text);
            CLI.say(format_args!("kernel_bench: wrote {}", path.display()));
        }
        None => CLI.say(text),
    }
}
