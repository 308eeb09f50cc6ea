//! `perfbench --workload <batch|serve-assign|serve-mutate|all> --seed <n>
//! --seconds <s> --trace <0|1> [--out-dir <dir>]`
//!
//! Prints a table of every metric with its unit and sample count, then, as
//! the last line, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end ones with `--trace 0`, per-layer ones with
//! `--trace 1`). `--workload all` runs every workload both ways.

use parclust_perfbench::alloc::CountingAlloc;
use parclust_perfbench::report::Report;
use parclust_perfbench::{run, Ctx, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let mut a = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: None,
        out_dir: PathBuf::from(target).join("perfbench-out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = Some(val.parse::<u8>().map_err(|e| bad(&e))? != 0),
            "--out-dir" => a.out_dir = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {WORKLOADS:?} or all)",
            a.workload
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    // The process-wide rayon pool serves only the serving stack: the
    // server's mutation path and direct engine calls. Width 1 keeps those
    // off the second core, where a 2-wide fork-join stalls on every host
    // preemption of either core; every pipeline pass runs in an explicit
    // 1- or 2-thread pool and is unaffected.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w => vec![w],
    };
    let modes: Vec<bool> = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let mut combined = Report::default();
    let mut last = None;
    for w in &workloads {
        let ctx = Ctx {
            workload: w.to_string(),
            seed: args.seed,
            seconds: args.seconds,
            out_dir: args.out_dir.clone(),
        };
        for &trace in &modes {
            eprintln!("perfbench: {w} (trace {})", trace as u8);
            let rep = run(&ctx, trace);
            println!(
                "{}",
                rep.table(&format!(
                    "{w} / {}",
                    if trace { "per-layer" } else { "end-to-end" }
                ))
            );
            combined.attempted += rep.attempted;
            combined.failed += rep.failed;
            for m in &rep.result {
                combined.result(&format!("{w}.{}", m.name), m.value, m.unit, m.samples);
            }
            last = Some(rep);
        }
    }
    let out = if workloads.len() * modes.len() == 1 {
        last.unwrap()
    } else {
        combined
    };
    println!("{}", out.json_line());
    ExitCode::SUCCESS
}
