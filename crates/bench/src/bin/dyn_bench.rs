//! Incremental-mutation micro-bench for CI: stream insert batches through
//! a [`parclust_dyn::DynamicModel`] and emit JSON for the bench gate.
//!
//! ```sh
//! dyn_bench --out bench_results/dynamic.json \
//!     [--n 4000] [--batches 32] [--batch-size 64] [--min-pts 5] \
//!     [--threads 4] [--seed 42]
//! ```
//!
//! The headline metric is `insert_pts_per_s` — inserted points divided by
//! total apply time — listed gated as `dynamic/insert_pts_per_s` in the
//! report's `metrics`, which `compare_bench --current` gates against the
//! committed baseline. The merge/rebuild batch split (whether a batch
//! carried any core distance over) is listed ungated: it describes the
//! workload, not a speed.
//!
//! Usage errors exit 2 and runtime failures exit 1, each with one
//! `dyn_bench: error:` line on stderr; a closed stdout (`dyn_bench … |
//! head`) ends the run quietly.

use parclust_bench::cli::Cli;
use parclust_bench::gate::{metrics_json, Metric};
use parclust_dyn::{DynConfig, DynamicModel, MutationBatch, MutationPath};
use parclust_geom::Point;
use rand::prelude::*;
use std::time::Instant;

const CLI: Cli = Cli("dyn_bench");

const USAGE: &str = "usage: dyn_bench [--n N] [--batches N] [--batch-size N] [--min-pts N] \
                     [--min-cluster-size N] [--threads N] [--seed N] [--out FILE]";

struct Opts {
    n: usize,
    batches: usize,
    batch_size: usize,
    min_pts: usize,
    min_cluster_size: usize,
    threads: usize,
    seed: u64,
    out: Option<std::path::PathBuf>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        n: 4000,
        batches: 32,
        batch_size: 64,
        min_pts: 5,
        min_cluster_size: 5,
        threads: 0,
        seed: 42,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let flag = a.as_str();
        match flag {
            "--n" => opts.n = CLI.parse(&mut args, flag),
            "--batches" => opts.batches = CLI.parse(&mut args, flag),
            "--batch-size" => opts.batch_size = CLI.parse(&mut args, flag),
            "--min-pts" => opts.min_pts = CLI.parse(&mut args, flag),
            "--min-cluster-size" => opts.min_cluster_size = CLI.parse(&mut args, flag),
            "--threads" => opts.threads = CLI.parse(&mut args, flag),
            "--seed" => opts.seed = CLI.parse(&mut args, flag),
            "--out" => opts.out = Some(CLI.value(&mut args, flag).into()),
            "--help" | "-h" => {
                CLI.say(USAGE);
                std::process::exit(0);
            }
            other => CLI.bad_arg(format_args!("unknown argument {other:?} (see --help)")),
        }
    }
    if opts.min_pts == 0 {
        CLI.bad_arg("--min-pts must be at least 1");
    }
    if opts.min_cluster_size < 2 {
        CLI.bad_arg("--min-cluster-size must be at least 2");
    }
    if opts.n < opts.min_pts.max(2) {
        CLI.bad_arg("--n too small to cluster");
    }
    if opts.batch_size == 0 {
        CLI.bad_arg("--batch-size must be at least 1");
    }
    opts
}

fn blob_points(n: usize, rng: &mut StdRng) -> Vec<Point<2>> {
    let centers = [(0.0, 0.0), (60.0, 0.0), (0.0, 60.0), (60.0, 60.0)];
    (0..n)
        .map(|i| {
            let (cx, cy) = centers[i % centers.len()];
            Point([cx + rng.gen_range(-4.0..4.0), cy + rng.gen_range(-4.0..4.0)])
        })
        .collect()
}

fn run(opts: &Opts) -> serde_json::Value {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let base = blob_points(opts.n, &mut rng);
    let mut model = DynamicModel::new(
        &base,
        opts.min_pts,
        opts.min_cluster_size,
        DynConfig::default(),
    );

    // Pre-generate every batch so the timed loop measures apply() alone.
    let batches: Vec<MutationBatch<2>> = (0..opts.batches)
        .map(|_| MutationBatch {
            inserts: blob_points(opts.batch_size, &mut rng),
            deletes: Vec::new(),
        })
        .collect();

    let apply_all = |model: &mut DynamicModel<2>| -> Vec<_> {
        batches
            .iter()
            .map(|batch| {
                model
                    .apply(batch)
                    .unwrap_or_else(|e| CLI.fail(format_args!("apply: {e}")))
            })
            .collect()
    };
    let t0 = Instant::now();
    let reports = if opts.threads > 0 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(opts.threads)
            .build()
            .unwrap_or_else(|e| CLI.fail(format_args!("thread pool: {e:?}")))
            .install(|| apply_all(&mut model))
    } else {
        apply_all(&mut model)
    };
    let seconds = t0.elapsed().as_secs_f64();

    let count = |path| reports.iter().filter(|r| r.path == path).count() as u64;
    let (merge, rebuild) = (count(MutationPath::Merge), count(MutationPath::Rebuild));
    let insert_pts_per_s = (opts.batches * opts.batch_size) as f64 / seconds.max(1e-12);
    let metrics = [
        Metric::gated("dynamic/insert_pts_per_s", insert_pts_per_s, "points/s"),
        Metric::info("dynamic/merge_batches", merge as f64, "count"),
        Metric::info("dynamic/rebuild_batches", rebuild as f64, "count"),
    ];
    serde_json::json!({
        "n_initial": opts.n as u64,
        "n_final": model.len() as u64,
        "batches": opts.batches as u64,
        "batch_size": opts.batch_size as u64,
        "min_pts": opts.min_pts as u64,
        "threads": opts.threads as u64,
        "seed": opts.seed,
        "seconds": seconds,
        "insert_pts_per_s": insert_pts_per_s,
        "merge_batches": merge,
        "rebuild_batches": rebuild,
        "recomputed_core_distances": reports.iter().map(|r| r.recomputed).sum::<usize>() as u64,
        "metrics": metrics_json(&metrics),
    })
}

fn main() {
    let opts = parse_args();
    let doc = run(&opts);
    let f = |k: &str| {
        doc.get(k)
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0)
    };
    CLI.say(format_args!(
        "dyn_bench: {} batches of {} inserts over n={} in {:.3}s \
         ({:.0} pts/s; {} merge / {} rebuild)",
        opts.batches,
        opts.batch_size,
        opts.n,
        f("seconds"),
        f("insert_pts_per_s"),
        f("merge_batches"),
        f("rebuild_batches"),
    ));
    let text = doc.to_json_string_pretty();
    match opts.out {
        Some(path) => {
            CLI.write_file(&path, &text);
            CLI.say(format_args!("dyn_bench: wrote {}", path.display()));
        }
        None => CLI.say(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parclust_bench::gate::read_metrics;

    #[test]
    fn metrics_gate_throughput_only() {
        let opts = Opts {
            n: 300,
            batches: 2,
            batch_size: 8,
            min_pts: 5,
            min_cluster_size: 5,
            threads: 0,
            seed: 7,
            out: None,
        };
        let doc = run(&opts);
        let metrics = read_metrics(&doc, None).unwrap();
        let got: Vec<(&str, &str, bool)> = metrics
            .iter()
            .map(|m| (m.key.as_str(), m.unit.as_str(), m.gated))
            .collect();
        assert_eq!(
            got,
            [
                ("dynamic/insert_pts_per_s", "points/s", true),
                ("dynamic/merge_batches", "count", false),
                ("dynamic/rebuild_batches", "count", false),
            ]
        );
        // The list repeats the report's own fields.
        for m in &metrics {
            let field = m.key.strip_prefix("dynamic/").unwrap();
            let reported = doc.get(field).and_then(serde_json::Value::as_f64);
            assert_eq!(reported, Some(m.value), "{}", m.key);
        }
        assert_eq!(
            metrics[1].value + metrics[2].value,
            2.0,
            "one path per batch"
        );
    }
}
