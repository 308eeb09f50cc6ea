//! Reproduction harness: regenerates every table and figure of the paper's
//! evaluation section (§5 + Appendix C/E) at a configurable scale.
//!
//! ```sh
//! cargo run --release -p parclust-bench --bin repro -- all --scale 0.5
//! cargo run --release -p parclust-bench --bin repro -- table2 fig6 --datasets 2D-SS-varden
//! ```
//!
//! Each experiment prints a paper-style text table and appends rows to a
//! JSON report (`bench_results/repro.json`). Absolute numbers are
//! machine-dependent; EXPERIMENTS.md records the paper-vs-measured
//! comparison of the *shapes* (method rankings, ratios, crossovers).
//!
//! Exit codes follow [`parclust_bench::cli`]: a bad flag, value or
//! experiment name exits 2 and a failed write exits 1, each with one
//! `repro: error:` line; a reader that closes stdout early ends the run
//! with exit 0.

use parclust::{
    condense_tree, count_clusters, dendrogram_par, dendrogram_seq, emst_boruvka, emst_delaunay,
    emst_gfk, emst_memogfk, emst_naive, extract_eom_eps, hdbscan_gantao, hdbscan_memogfk,
    optics_approx, NOISE,
};
use parclust_bench::cli::Cli;
use parclust_bench::gate::Metric;
use parclust_bench::{
    best_time, best_time_with_metrics, dataset, fmt_secs, thread_counts, with_points, DataSpec,
    Report, ResultRow, DATASETS,
};

const CLI: Cli = Cli("repro");

/// `println!` that ends the run quietly when stdout's reader hung up.
macro_rules! say {
    ($($arg:tt)*) => {
        CLI.say(format_args!($($arg)*))
    };
}

/// Every experiment name the harness runs (`scale` only when named).
const EXPERIMENTS: &[&str] = &[
    "table2", "table3", "table4", "table5", "fig6", "fig7", "fig8", "fig9", "fig10", "memory",
    "minpts", "ablation", "extract", "scale", "all",
];

struct Opts {
    experiments: Vec<String>,
    scale: f64,
    reps: usize,
    only_datasets: Option<Vec<String>>,
    out_dir: std::path::PathBuf,
    min_pts: usize,
    cluster_eps: Vec<f64>,
    points_file: Option<std::path::PathBuf>,
    max_memory: u64,
    strict_memory: bool,
    /// Write a Chrome-trace JSON of every pipeline span to this path.
    trace: Option<std::path::PathBuf>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        experiments: Vec::new(),
        scale: 1.0,
        reps: 1,
        only_datasets: None,
        out_dir: "bench_results".into(),
        min_pts: 10,
        cluster_eps: vec![0.0, 1.0, 5.0],
        points_file: None,
        max_memory: parclust_bench::memory::parse_bytes("2G").unwrap(),
        strict_memory: false,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let flag = a.as_str();
        match flag {
            "--scale" => opts.scale = CLI.parse(&mut args, flag),
            "--threads" => {
                // Route through the env knob the harness reads so every
                // experiment (tables, figures) sees the same ceiling.
                let t: usize = CLI.parse(&mut args, flag);
                if t == 0 {
                    CLI.bad_arg("--threads must be at least 1");
                }
                std::env::set_var("PARCLUST_MAX_THREADS", t.to_string());
            }
            "--reps" => opts.reps = CLI.parse(&mut args, flag),
            "--minpts" => opts.min_pts = CLI.parse(&mut args, flag),
            "--cluster-eps" => {
                let raw = CLI.value(&mut args, flag);
                opts.cluster_eps = raw
                    .split(',')
                    .map(|s| {
                        s.trim().parse().unwrap_or_else(|_| {
                            CLI.bad_arg(format_args!("invalid value {raw:?} for {flag}"))
                        })
                    })
                    .collect();
            }
            "--out" => opts.out_dir = CLI.value(&mut args, flag).into(),
            "--points-file" => opts.points_file = Some(CLI.value(&mut args, flag).into()),
            "--max-memory" => {
                let raw = CLI.value(&mut args, flag);
                opts.max_memory = parclust_bench::memory::parse_bytes(&raw)
                    .unwrap_or_else(|e| CLI.bad_arg(format_args!("--max-memory {raw:?}: {e}")));
            }
            "--strict-memory" => opts.strict_memory = true,
            "--trace" => opts.trace = Some(CLI.value(&mut args, flag).into()),
            "--datasets" => {
                opts.only_datasets = Some(
                    CLI.value(&mut args, flag)
                        .split(',')
                        .map(|s| s.to_string())
                        .collect(),
                )
            }
            "--help" | "-h" => {
                say!(
                    "usage: repro [{}]... \
                     [--scale F] [--reps N] [--minpts N] [--threads N] [--cluster-eps a,b,c] [--datasets a,b] [--out DIR] \
                     [--points-file PATH] [--max-memory SIZE] [--strict-memory] [--trace PATH]",
                    EXPERIMENTS.join("|")
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                CLI.bad_arg(format_args!("unknown argument {other:?} (see --help)"))
            }
            other if EXPERIMENTS.contains(&other) => opts.experiments.push(a),
            other => CLI.bad_arg(format_args!("unknown experiment {other:?} (see --help)")),
        }
    }
    if opts.experiments.is_empty() {
        opts.experiments.push("all".to_string());
    }
    opts
}

fn selected(opts: &Opts) -> Vec<&'static DataSpec> {
    DATASETS
        .iter()
        .filter(|d| match &opts.only_datasets {
            None => true,
            Some(names) => names.iter().any(|n| n.eq_ignore_ascii_case(d.name)),
        })
        .collect()
}

fn n_of(spec: &DataSpec, scale: f64) -> usize {
    ((spec.base_n as f64 * scale) as usize).max(256)
}

/// Representative subset for the per-thread-count figures (keep wall time
/// reasonable; `--datasets` overrides).
fn figure_subset(opts: &Opts) -> Vec<&'static DataSpec> {
    let all = selected(opts);
    if opts.only_datasets.is_some() {
        return all;
    }
    [
        "2D-SS-varden",
        "3D-UniformFill",
        "3D-GeoLife-like",
        "7D-Household-like",
    ]
    .iter()
    .filter_map(|n| dataset(n))
    .collect()
}

const EMST_METHODS: &[&str] = &["EMST-Naive", "EMST-GFK", "EMST-MemoGFK", "EMST-Delaunay"];
const HDB_METHODS: &[&str] = &["HDBSCAN-MemoGFK", "HDBSCAN-GanTao"];

/// Run one named EMST method at `threads`; `None` if the method does not
/// apply (Delaunay beyond 2D). The third element is the pool's
/// work-distribution counters for the row's `extra` field.
fn run_emst_method(
    method: &str,
    spec: &DataSpec,
    n: usize,
    threads: usize,
    reps: usize,
) -> Option<(f64, parclust::Stats, serde_json::Value)> {
    if method == "EMST-Delaunay" && spec.dims != 2 {
        return None;
    }
    let (stats, secs, pool) = with_points!(spec, n, |pts| {
        best_time_with_metrics(threads, reps, || match method {
            "EMST-Naive" => emst_naive(&pts).stats,
            "EMST-GFK" => emst_gfk(&pts).stats,
            "EMST-MemoGFK" => emst_memogfk(&pts).stats,
            "EMST-Delaunay" => run_delaunay_erased(&pts),
            "EMST-Boruvka" => emst_boruvka(&pts).stats,
            _ => unreachable!("unknown method {method}"),
        })
    });
    Some((secs, stats, pool))
}

/// Type-erasure helper: reachable for every dimension but only ever called
/// with D == 2 (guarded by the caller).
fn run_delaunay_erased<const D: usize>(pts: &[parclust::Point<D>]) -> parclust::Stats {
    assert_eq!(D, 2, "Delaunay is 2D-only");
    // SAFETY: Point<D> is a plain [f64; D] wrapper; D == 2 checked above.
    let pts2: &[parclust::Point<2>] =
        unsafe { std::slice::from_raw_parts(pts.as_ptr().cast(), pts.len()) };
    emst_delaunay(pts2).stats
}

/// HDBSCAN timing: MST plus ordered dendrogram, per the paper's §5 note
/// ("All HDBSCAN* running times include constructing an MST ... and
/// computing the ordered dendrogram").
fn run_hdbscan_method(
    method: &str,
    spec: &DataSpec,
    n: usize,
    threads: usize,
    reps: usize,
    min_pts: usize,
) -> (f64, parclust::Stats, serde_json::Value) {
    with_points!(spec, n, |pts| {
        let (stats, secs, pool) = best_time_with_metrics(threads, reps, || {
            let mut h = match method {
                "HDBSCAN-MemoGFK" => hdbscan_memogfk(&pts, min_pts),
                "HDBSCAN-GanTao" => hdbscan_gantao(&pts, min_pts),
                "OPTICS-GanTaoApprox" => optics_approx(&pts, min_pts, 0.125),
                _ => unreachable!("unknown method {method}"),
            };
            let t0 = std::time::Instant::now();
            let _ = dendrogram_par(pts.len(), &h.edges, 0);
            h.stats.dendrogram = t0.elapsed().as_secs_f64();
            h.stats.total += h.stats.dendrogram;
            h.stats
        });
        (secs, stats, pool)
    })
}

// --------------------------------------------------------------------
// Experiments
// --------------------------------------------------------------------

/// Tables 4 + 2 (EMST): raw times at 1 thread and max threads, then the
/// derived speedup table.
fn table4_and_2(opts: &Opts, report: &mut Report) {
    let max_t = *thread_counts().last().unwrap();
    say!("\n=== Table 4: EMST running times (1 thread vs {max_t} threads) ===");
    say!(
        "{:<20} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "dataset",
        "Naive-1",
        "Naive-P",
        "GFK-1",
        "GFK-P",
        "MemoG-1",
        "MemoG-P",
        "Delau-1",
        "Delau-P"
    );
    let mut speedups: Vec<(String, String, f64, f64)> = Vec::new();
    for spec in selected(opts) {
        let n = n_of(spec, opts.scale);
        let mut cells: Vec<String> = Vec::new();
        let mut seq_times: Vec<(String, f64)> = Vec::new();
        let mut par_times: Vec<(String, f64)> = Vec::new();
        for method in EMST_METHODS {
            match run_emst_method(method, spec, n, 1, opts.reps) {
                None => {
                    cells.push("-".into());
                    cells.push("-".into());
                }
                Some((t1, _, _)) => {
                    let (tp, _, pool) = run_emst_method(method, spec, n, max_t, opts.reps).unwrap();
                    cells.push(fmt_secs(t1));
                    cells.push(fmt_secs(tp));
                    seq_times.push((method.to_string(), t1));
                    par_times.push((method.to_string(), tp));
                    // Pool counters ride on the parallel row only: the
                    // 1-thread run has nothing to steal.
                    for (threads, secs, pool) in [(1, t1, None), (max_t, tp, Some(pool))] {
                        report.push(ResultRow {
                            experiment: "table4".into(),
                            dataset: spec.name.into(),
                            method: method.to_string(),
                            threads,
                            n,
                            seconds: secs,
                            extra: pool.map(|p| serde_json::json!({ "pool": p })),
                        });
                    }
                }
            }
        }
        say!(
            "{:<20} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
            spec.name,
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4],
            cells[5],
            cells.get(6).cloned().unwrap_or_else(|| "-".into()),
            cells.get(7).cloned().unwrap_or_else(|| "-".into()),
        );
        let best_seq = seq_times
            .iter()
            .map(|(_, t)| *t)
            .fold(f64::INFINITY, f64::min);
        for ((m, tp), (_, t1)) in par_times.iter().zip(&seq_times) {
            speedups.push((m.clone(), spec.name.to_string(), best_seq / tp, t1 / tp));
        }
    }
    print_table2("EMST", &speedups, report);
}

/// One table2 row: speedup over the best sequential method (`s1`) and
/// self-relative speedup (`s2`), both also listed as gated metrics —
/// same-run ratios transfer across machines where raw seconds cannot.
fn push_table2(report: &mut Report, ds: &str, m: &str, threads: usize, s1: f64, s2: f64) {
    report.push(ResultRow {
        experiment: "table2".into(),
        dataset: ds.to_string(),
        method: m.to_string(),
        threads,
        n: 0,
        seconds: 0.0,
        extra: Some(serde_json::json!({
            "speedup_over_best_seq": s1,
            "self_relative_speedup": s2,
        })),
    });
    let key = |field: &str| format!("table2/{ds}/{m}/{field}");
    report.metrics.extend([
        Metric::gated(key("self_relative_speedup"), s2, "ratio"),
        Metric::gated(key("speedup_over_best_seq"), s1, "ratio"),
    ]);
}

fn print_table2(family: &str, speedups: &[(String, String, f64, f64)], report: &mut Report) {
    let max_t = *thread_counts().last().unwrap();
    say!(
        "\n=== Table 2 ({family}): speedups on {max_t} threads \
         (paper: 48 cores with hyper-threading; ranges over data sets) ==="
    );
    say!(
        "{:<20} {:>30} {:>30}",
        "method",
        "over best sequential",
        "self-relative"
    );
    let mut methods: Vec<String> = Vec::new();
    for (m, _, _, _) in speedups {
        if !methods.contains(m) {
            methods.push(m.clone());
        }
    }
    for m in methods {
        let rows: Vec<&(String, String, f64, f64)> =
            speedups.iter().filter(|(mm, _, _, _)| *mm == m).collect();
        let (mut lo1, mut hi1, mut sum1) = (f64::INFINITY, 0f64, 0f64);
        let (mut lo2, mut hi2, mut sum2) = (f64::INFINITY, 0f64, 0f64);
        for (_, ds, s1, s2) in rows.iter().copied() {
            lo1 = lo1.min(*s1);
            hi1 = hi1.max(*s1);
            sum1 += s1;
            lo2 = lo2.min(*s2);
            hi2 = hi2.max(*s2);
            sum2 += s2;
            push_table2(report, ds, &m, max_t, *s1, *s2);
        }
        let k = rows.len() as f64;
        say!(
            "{:<20} {:>9.2}-{:<8.2} avg {:>6.2} {:>9.2}-{:<8.2} avg {:>6.2}",
            m,
            lo1,
            hi1,
            sum1 / k,
            lo2,
            hi2,
            sum2 / k
        );
    }
}

/// Table 3: sequential baselines — our Dual-Tree-Boruvka-style baseline
/// (the mlpack stand-in) vs sequential MemoGFK (paper: MemoGFK 0.89–4.17x
/// faster, 2.44x average).
fn table3(opts: &Opts, report: &mut Report) {
    say!("\n=== Table 3: sequential EMST — Boruvka baseline vs MemoGFK (1 thread) ===");
    say!(
        "{:<20} {:>12} {:>12} {:>10}",
        "dataset",
        "Boruvka(s)",
        "MemoGFK(s)",
        "ratio"
    );
    let mut ratios = Vec::new();
    for spec in selected(opts) {
        let n = n_of(spec, opts.scale);
        let (tb, _, _) = run_emst_method("EMST-Boruvka", spec, n, 1, opts.reps).unwrap();
        let (tm, _, _) = run_emst_method("EMST-MemoGFK", spec, n, 1, opts.reps).unwrap();
        let ratio = tb / tm;
        ratios.push(ratio);
        say!(
            "{:<20} {:>12} {:>12} {:>9.2}x",
            spec.name,
            fmt_secs(tb),
            fmt_secs(tm),
            ratio
        );
        for (method, secs) in [("EMST-Boruvka", tb), ("EMST-MemoGFK", tm)] {
            report.push(ResultRow {
                experiment: "table3".into(),
                dataset: spec.name.into(),
                method: method.into(),
                threads: 1,
                n,
                seconds: secs,
                extra: None,
            });
        }
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    say!("MemoGFK vs Boruvka baseline: {avg:.2}x average (paper vs mlpack: 2.44x average)");
}

/// Table 5: HDBSCAN* raw times (minPts = 10), both variants, 1 vs P threads.
fn table5(opts: &Opts, report: &mut Report) {
    let max_t = *thread_counts().last().unwrap();
    say!(
        "\n=== Table 5: HDBSCAN* (minPts={}) running times (MST + dendrogram) ===",
        opts.min_pts
    );
    say!(
        "{:<20} {:>12} {:>12} {:>12} {:>12}",
        "dataset",
        "MemoGFK-1",
        "MemoGFK-P",
        "GanTao-1",
        "GanTao-P"
    );
    let mut speedups: Vec<(String, String, f64, f64)> = Vec::new();
    for spec in selected(opts) {
        let n = n_of(spec, opts.scale);
        let mut cells = Vec::new();
        let mut pairs = Vec::new();
        for method in HDB_METHODS {
            let (t1, _, _) = run_hdbscan_method(method, spec, n, 1, opts.reps, opts.min_pts);
            let (tp, _, pool) = run_hdbscan_method(method, spec, n, max_t, opts.reps, opts.min_pts);
            cells.push(fmt_secs(t1));
            cells.push(fmt_secs(tp));
            pairs.push((method.to_string(), t1, tp));
            for (threads, secs, pool) in [(1, t1, None), (max_t, tp, Some(pool))] {
                report.push(ResultRow {
                    experiment: "table5".into(),
                    dataset: spec.name.into(),
                    method: method.to_string(),
                    threads,
                    n,
                    seconds: secs,
                    extra: pool.map(|p| serde_json::json!({ "pool": p })),
                });
            }
        }
        say!(
            "{:<20} {:>12} {:>12} {:>12} {:>12}",
            spec.name,
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
        let best_seq = pairs
            .iter()
            .map(|(_, t1, _)| *t1)
            .fold(f64::INFINITY, f64::min);
        for (m, t1, tp) in pairs {
            speedups.push((m, spec.name.to_string(), best_seq / tp, t1 / tp));
        }
    }
    print_table2("HDBSCAN*", &speedups, report);
}

/// Figures 6 & 7: speedup vs thread count.
fn figures_6_7(opts: &Opts, report: &mut Report, which: &str) {
    let ts = thread_counts();
    let is_hdb = which == "fig7";
    let methods: Vec<&str> = if is_hdb {
        HDB_METHODS.to_vec()
    } else {
        EMST_METHODS.to_vec()
    };
    say!(
        "\n=== Figure {}: {} speedup over best sequential vs thread count ===",
        if is_hdb { "7" } else { "6" },
        if is_hdb {
            "HDBSCAN* (incl. dendrogram)"
        } else {
            "EMST"
        }
    );
    for spec in figure_subset(opts) {
        let n = n_of(spec, opts.scale);
        let mut times: Vec<(String, Vec<f64>)> = Vec::new();
        for method in &methods {
            let mut series = Vec::new();
            let mut applicable = true;
            for &t in &ts {
                let secs = if is_hdb {
                    run_hdbscan_method(method, spec, n, t, opts.reps, opts.min_pts).0
                } else {
                    match run_emst_method(method, spec, n, t, opts.reps) {
                        Some((secs, _, _)) => secs,
                        None => {
                            applicable = false;
                            break;
                        }
                    }
                };
                series.push(secs);
            }
            if applicable {
                times.push((method.to_string(), series));
            }
        }
        let best_seq = times
            .iter()
            .map(|(_, s)| s[0])
            .fold(f64::INFINITY, f64::min);
        say!(
            "--- {} (n={n}, best sequential {:.3}s) ---",
            spec.name,
            best_seq
        );
        let mut line = format!("{:<18}", "threads");
        for &t in &ts {
            line.push_str(&format!("{t:>10}"));
        }
        say!("{line}");
        for (method, series) in &times {
            let mut line = format!("{method:<18}");
            for (i, secs) in series.iter().enumerate() {
                line.push_str(&format!("{:>9.2}x", best_seq / secs));
                report.push(ResultRow {
                    experiment: which.into(),
                    dataset: spec.name.into(),
                    method: method.clone(),
                    threads: ts[i],
                    n,
                    seconds: *secs,
                    extra: Some(serde_json::json!({"speedup": best_seq / secs})),
                });
            }
            say!("{line}");
        }
    }
}

/// Figure 8: per-phase decomposition of the parallel running times.
fn fig8(opts: &Opts, report: &mut Report) {
    let max_t = *thread_counts().last().unwrap();
    say!("\n=== Figure 8: phase decomposition at {max_t} threads ===");
    say!(
        "{:<20} {:<18} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "dataset",
        "method",
        "build-tree",
        "core-dist",
        "wspd",
        "kruskal",
        "dendrogram",
        "total"
    );
    for spec in figure_subset(opts) {
        let n = n_of(spec, opts.scale);
        let mut rows: Vec<(String, parclust::Stats)> = Vec::new();
        for method in EMST_METHODS {
            if let Some((_, stats, _)) = run_emst_method(method, spec, n, max_t, opts.reps) {
                rows.push((method.to_string(), stats));
            }
        }
        for method in HDB_METHODS {
            let (_, stats, _) = run_hdbscan_method(method, spec, n, max_t, opts.reps, opts.min_pts);
            rows.push((method.to_string(), stats));
        }
        for (method, s) in rows {
            say!(
                "{:<20} {:<18} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
                spec.name,
                method,
                fmt_secs(s.build_tree),
                fmt_secs(s.core_dist),
                fmt_secs(s.wspd),
                fmt_secs(s.kruskal),
                fmt_secs(s.dendrogram),
                fmt_secs(s.total),
            );
            report.push(ResultRow {
                experiment: "fig8".into(),
                dataset: spec.name.into(),
                method,
                threads: max_t,
                n,
                seconds: s.total,
                extra: Some(serde_json::to_value(&s).unwrap()),
            });
        }
    }
}

/// Figure 9: dendrogram construction — self-relative speedup and time for
/// single-linkage (EMST input) and HDBSCAN* (minPts=10) MSTs.
fn fig9(opts: &Opts, report: &mut Report) {
    let max_t = *thread_counts().last().unwrap();
    say!("\n=== Figure 9: ordered dendrogram speedups ({max_t} threads, self-relative) ===");
    say!(
        "{:<20} {:>16} {:>12} {:>16} {:>12}",
        "dataset",
        "SLC speedup",
        "SLC time",
        "HDB speedup",
        "HDB time"
    );
    for spec in selected(opts) {
        let n = n_of(spec, opts.scale);
        let (slc, hdb) = with_points!(spec, n, |pts| {
            let mst = emst_memogfk(&pts);
            let h = hdbscan_memogfk(&pts, opts.min_pts);
            let (_, slc1) = best_time(1, opts.reps, || dendrogram_seq(pts.len(), &mst.edges, 0));
            let (_, slcp) = best_time(max_t, opts.reps, || {
                dendrogram_par(pts.len(), &mst.edges, 0)
            });
            let (_, hdb1) = best_time(1, opts.reps, || dendrogram_seq(pts.len(), &h.edges, 0));
            let (_, hdbp) = best_time(max_t, opts.reps, || dendrogram_par(pts.len(), &h.edges, 0));
            ((slc1, slcp), (hdb1, hdbp))
        });
        say!(
            "{:<20} {:>15.2}x {:>12} {:>15.2}x {:>12}",
            spec.name,
            slc.0 / slc.1,
            fmt_secs(slc.1),
            hdb.0 / hdb.1,
            fmt_secs(hdb.1),
        );
        for (method, t1, tp) in [
            ("dendrogram-SLC", slc.0, slc.1),
            ("dendrogram-HDBSCAN", hdb.0, hdb.1),
        ] {
            report.push(ResultRow {
                experiment: "fig9".into(),
                dataset: spec.name.into(),
                method: method.into(),
                threads: max_t,
                n,
                seconds: tp,
                extra: Some(serde_json::json!({"seq_seconds": t1, "speedup": t1 / tp})),
            });
        }
    }
}

/// Figure 10: approximate OPTICS vs the exact HDBSCAN* methods.
fn fig10(opts: &Opts, report: &mut Report) {
    let ts = thread_counts();
    say!("\n=== Figure 10: OPTICS-GanTaoApprox (rho=0.125) vs exact HDBSCAN* ===");
    let specs: Vec<&DataSpec> = ["7D-Household-like", "16D-CHEM-like"]
        .iter()
        .filter_map(|n| dataset(n))
        .collect();
    for spec in specs {
        let n = n_of(spec, opts.scale);
        say!("--- {} (n={n}) ---", spec.name);
        let mut line = format!("{:<22}", "threads");
        for &t in &ts {
            line.push_str(&format!("{t:>12}"));
        }
        say!("{line}");
        for method in ["HDBSCAN-MemoGFK", "HDBSCAN-GanTao", "OPTICS-GanTaoApprox"] {
            let mut line = format!("{method:<22}");
            for &t in &ts {
                let (secs, _, _) = run_hdbscan_method(method, spec, n, t, opts.reps, opts.min_pts);
                line.push_str(&format!("{:>12}", fmt_secs(secs)));
                report.push(ResultRow {
                    experiment: "fig10".into(),
                    dataset: spec.name.into(),
                    method: method.into(),
                    threads: t,
                    n,
                    seconds: secs,
                    extra: None,
                });
            }
            say!("{line}");
        }
    }
}

/// Full WSPD sizes under the two HDBSCAN* separation definitions — the
/// paper's "2.5–10.29x fewer well-separated pairs" metric.
fn hdbscan_wspd_sizes<const D: usize>(
    pts: &[parclust::Point<D>],
    min_pts: usize,
) -> (usize, usize) {
    use parclust_kdtree::KdTree;
    use parclust_wspd::policy::core_distance_annotations;
    use parclust_wspd::{wspd_materialize, MutualReachSep, SepMode};
    let tree = KdTree::build(pts);
    let cd = parclust::core_distances_on_tree(&tree, min_pts);
    let cd_pos: Vec<f64> = tree.idx.iter().map(|&o| cd[o as usize]).collect();
    let (cd_min, cd_max) = core_distance_annotations(&tree, &cd_pos);
    let std = wspd_materialize(
        &tree,
        &MutualReachSep::new(SepMode::Standard, &cd_pos, &cd_min, &cd_max),
    )
    .len();
    let comb = wspd_materialize(
        &tree,
        &MutualReachSep::new(SepMode::Combined, &cd_pos, &cd_min, &cd_max),
    )
    .len();
    (std, comb)
}

/// §5 memory study: peak materialized pairs/bytes per method, MemoGFK's
/// peak frontier, and the WSPD pair-count ratio of the two HDBSCAN*
/// separation definitions.
fn memory(opts: &Opts, report: &mut Report) {
    say!("\n=== Memory study (§5 'MemoGFK Memory Usage') ===");
    say!(
        "{:<20} {:>13} {:>13} {:>16} {:>9} {:>13} {:>13} {:>9}",
        "dataset",
        "full WSPD",
        "MemoGFK peak",
        "MemoGFK frontier",
        "ratio",
        "WSPD std",
        "WSPD new",
        "sep ratio"
    );
    for spec in selected(opts) {
        let n = n_of(spec, opts.scale);
        let (naive, gfk, memo, wspd_std, wspd_new) = with_points!(spec, n, |pts| {
            let sizes = hdbscan_wspd_sizes(&pts, opts.min_pts);
            (
                emst_naive(&pts).stats,
                emst_gfk(&pts).stats,
                emst_memogfk(&pts).stats,
                sizes.0,
                sizes.1,
            )
        });
        let ratio = naive.peak_live_pairs as f64 / memo.peak_live_pairs.max(1) as f64;
        let sep_ratio = wspd_std as f64 / wspd_new.max(1) as f64;
        say!(
            "{:<20} {:>13} {:>13} {:>16} {:>8.2}x {:>13} {:>13} {:>8.2}x",
            spec.name,
            naive.peak_live_pairs,
            memo.peak_live_pairs,
            memo.peak_frontier,
            ratio,
            wspd_std,
            wspd_new,
            sep_ratio,
        );
        report.push(ResultRow {
            experiment: "memory".into(),
            dataset: spec.name.into(),
            method: "memory-study".into(),
            threads: 0,
            n,
            seconds: 0.0,
            extra: Some(serde_json::json!({
                "full_wspd_pairs": naive.peak_live_pairs,
                "gfk_peak_pairs": gfk.peak_live_pairs,
                "memogfk_peak_pairs": memo.peak_live_pairs,
                "memogfk_peak_frontier": memo.peak_frontier,
                "naive_peak_bytes": naive.peak_pair_bytes,
                "memogfk_peak_bytes": memo.peak_pair_bytes,
                "pair_reduction": ratio,
                "hdbscan_wspd_standard": wspd_std,
                "hdbscan_wspd_combined": wspd_new,
                "separation_pair_ratio": sep_ratio,
            })),
        });
    }
    say!(
        "(paper: MemoGFK reduces memory by up to 10x; the new separation \
         yields 2.5-10.29x fewer pairs)"
    );
}

/// §5 minPts sensitivity: the paper reports "just a moderate increase" for
/// minPts from 10 to 50.
fn minpts(opts: &Opts, report: &mut Report) {
    let max_t = *thread_counts().last().unwrap();
    say!("\n=== minPts sensitivity (HDBSCAN*-MemoGFK, {max_t} threads) ===");
    let mut line = format!("{:<20}", "dataset");
    let mps = [10usize, 20, 30, 40, 50];
    for mp in mps {
        line.push_str(&format!("{:>12}", format!("minPts={mp}")));
    }
    say!("{line}");
    for spec in figure_subset(opts) {
        let n = n_of(spec, opts.scale);
        let mut line = format!("{:<20}", spec.name);
        for mp in mps {
            let (secs, _, _) = run_hdbscan_method("HDBSCAN-MemoGFK", spec, n, max_t, opts.reps, mp);
            line.push_str(&format!("{:>12}", fmt_secs(secs)));
            report.push(ResultRow {
                experiment: "minpts".into(),
                dataset: spec.name.into(),
                method: format!("minPts={mp}"),
                threads: max_t,
                n,
                seconds: secs,
                extra: None,
            });
        }
        say!("{line}");
    }
}

/// β-schedule ablation (§3.1.2): the paper's doubling β vs. Chatterjee et
/// al.'s β + 1. Doubling keeps the round count logarithmic; incrementing
/// pays a full GetRho/GetPairs traversal per unit of β.
fn ablation(opts: &Opts, report: &mut Report) {
    use parclust::{emst_memogfk_with_schedule, BetaSchedule};
    let max_t = *thread_counts().last().unwrap();
    say!("\n=== Ablation: MemoGFK β schedule (doubling vs +1) at {max_t} threads ===");
    say!(
        "{:<20} {:>12} {:>9} {:>12} {:>9} {:>9}",
        "dataset",
        "double(s)",
        "rounds",
        "increment(s)",
        "rounds",
        "slowdown"
    );
    for spec in figure_subset(opts) {
        // The incremental schedule needs Θ(max pair cardinality) rounds —
        // that blow-up is exactly what the ablation demonstrates — so cap
        // the input size to keep its running time bounded.
        let n = n_of(spec, opts.scale).min(5000);
        let (d, i) = with_points!(spec, n, |pts| {
            let (sd, td) = best_time(max_t, opts.reps, || {
                emst_memogfk_with_schedule(&pts, BetaSchedule::Double).stats
            });
            let (si, ti) = best_time(max_t, opts.reps, || {
                emst_memogfk_with_schedule(&pts, BetaSchedule::Increment).stats
            });
            ((td, sd.rounds), (ti, si.rounds))
        });
        say!(
            "{:<20} {:>12} {:>9} {:>12} {:>9} {:>8.2}x",
            spec.name,
            fmt_secs(d.0),
            d.1,
            fmt_secs(i.0),
            i.1,
            i.0 / d.0,
        );
        for (method, secs, rounds) in [("beta-double", d.0, d.1), ("beta-increment", i.0, i.1)] {
            report.push(ResultRow {
                experiment: "ablation".into(),
                dataset: spec.name.into(),
                method: method.into(),
                threads: max_t,
                n,
                seconds: secs,
                extra: Some(serde_json::json!({"rounds": rounds})),
            });
        }
    }
}

/// Flat-extraction study (beyond the paper's evaluated scope): EOM cluster
/// selection across `cluster_selection_epsilon` values — cluster/noise
/// counts and extraction time on top of one HDBSCAN* hierarchy per data
/// set. The hierarchy is built once; only the selection sweep is timed.
fn extraction(opts: &Opts, report: &mut Report) {
    say!(
        "\n=== EOM extraction: cluster_selection_epsilon sweep (minPts={}, minClusterSize=10) ===",
        opts.min_pts
    );
    say!(
        "{:<20} {:>12} {:>10} {:>10} {:>12}",
        "dataset",
        "eps",
        "clusters",
        "noise",
        "extract(s)"
    );
    for spec in figure_subset(opts) {
        let n = n_of(spec, opts.scale);
        with_points!(spec, n, |pts| {
            let h = hdbscan_memogfk(&pts, opts.min_pts);
            let d = dendrogram_par(pts.len(), &h.edges, 0);
            let ct = condense_tree(&d, 10);
            for &eps in &opts.cluster_eps {
                let t0 = std::time::Instant::now();
                let labels = extract_eom_eps(&ct, eps);
                let secs = t0.elapsed().as_secs_f64();
                let noise = labels.iter().filter(|&&l| l == NOISE).count();
                let clusters = count_clusters(&labels);
                say!(
                    "{:<20} {:>12} {:>10} {:>10} {:>12}",
                    spec.name,
                    format!("{eps}"),
                    clusters,
                    noise,
                    fmt_secs(secs)
                );
                report.push(ResultRow {
                    experiment: "extract".into(),
                    dataset: spec.name.into(),
                    method: format!("eom-eps={eps}"),
                    threads: 0,
                    n,
                    seconds: secs,
                    extra: Some(serde_json::json!({
                        "cluster_selection_epsilon": eps,
                        "clusters": clusters as u64,
                        "noise": noise as u64,
                    })),
                });
            }
        });
    }
}

/// Scale experiment (beyond the laptop-class tables): out-of-core
/// ingestion + streaming EMST on a multi-million-point input under a
/// bounded working set, with peak RSS recorded next to the timings.
///
/// Input resolution: `--points-file` (any dimensionality in the chunked
/// `PCLS` format) or, by default, `2M × --scale` generated
/// 3D-GeoLife-like points streamed into a chunked file first — so the run
/// always exercises the file-ingestion path end to end. Explicit-only
/// (not part of `all`): it is sized for the nightly deep leg.
fn scale_experiment(opts: &Opts, report: &mut Report) -> bool {
    use parclust_bench::memory::fmt_bytes;
    use parclust_data::io::{chunked_header, ChunkedWriter};

    say!(
        "\n=== Scale: out-of-core ingestion + streaming EMST (max-memory {}) ===",
        fmt_bytes(opts.max_memory)
    );
    std::fs::create_dir_all(&opts.out_dir)
        .unwrap_or_else(|e| CLI.fail(format_args!("create {}: {e}", opts.out_dir.display())));
    let (path, generated) = match &opts.points_file {
        Some(p) => (p.clone(), false),
        None => {
            let n = ((2_000_000f64 * opts.scale) as usize).max(10_000);
            let p = opts.out_dir.join("scale_points.pcls");
            let t0 = std::time::Instant::now();
            let pts = parclust_data::gps_like(n, 42);
            let written = ChunkedWriter::<3, _>::create(&p, parclust_data::DEFAULT_CHUNK_LEN)
                .and_then(|mut w| {
                    w.push_all(&pts)?;
                    w.finish()
                });
            if let Err(e) = written {
                CLI.fail(format_args!("write {}: {e}", p.display()));
            }
            say!(
                "generated {n} 3D GeoLife-like points -> {} ({:.1}s)",
                p.display(),
                t0.elapsed().as_secs_f64()
            );
            (p, true)
        }
    };
    let header = chunked_header(&path)
        .unwrap_or_else(|e| CLI.fail(format_args!("read {}: {e}", path.display())));
    let ok = match header.dims {
        2 => scale_run::<2>(&path, opts, report),
        3 => scale_run::<3>(&path, opts, report),
        5 => scale_run::<5>(&path, opts, report),
        7 => scale_run::<7>(&path, opts, report),
        10 => scale_run::<10>(&path, opts, report),
        16 => scale_run::<16>(&path, opts, report),
        d => CLI.fail(format_args!(
            "{}: unsupported point-file dimensionality {d}",
            path.display()
        )),
    };
    if generated {
        std::fs::remove_file(&path).ok();
    }
    ok
}

fn scale_run<const D: usize>(path: &std::path::Path, opts: &Opts, report: &mut Report) -> bool {
    use parclust_bench::memory::{fmt_bytes, peak_rss_bytes, MemoryBudget};

    let max_t = *thread_counts().last().unwrap();
    let budget = MemoryBudget::new(opts.max_memory);

    let t0 = std::time::Instant::now();
    let pts = parclust_data::read_chunked::<D>(path)
        .unwrap_or_else(|e| CLI.fail(format_args!("read {}: {e}", path.display())));
    let ingest_secs = t0.elapsed().as_secs_f64();

    let n = pts.len();
    let cap = budget.batch_cap(n, D);
    let fixed = budget.fixed_bytes(n, D);
    if fixed >= opts.max_memory {
        eprintln!(
            "warning: estimated fixed cost {} of {n} points exceeds --max-memory {} — \
             batches stay bounded at the floor, but the bound cannot hold",
            fmt_bytes(fixed),
            fmt_bytes(opts.max_memory)
        );
    }
    say!(
        "streaming EMST: n={n} dims={D} batch-cap={cap} pairs (fixed est. {})",
        fmt_bytes(fixed)
    );

    let (stats, secs, pool) = best_time_with_metrics(max_t, opts.reps, || {
        parclust::emst_streaming(&pts, cap).stats
    });
    let rss = peak_rss_bytes();
    let within = rss.map(|r| r <= opts.max_memory);
    say!(
        "{:<22} {:>10} {:>12} {:>10} {:>12} {:>14} {:>12}",
        "dataset",
        "ingest(s)",
        "emst(s)",
        "batches",
        "peak pairs",
        "peak RSS",
        "in budget"
    );
    say!(
        "{:<22} {:>10.2} {:>12} {:>10} {:>12} {:>14} {:>12}",
        format!("{D}D-file"),
        ingest_secs,
        fmt_secs(secs),
        stats.rounds,
        stats.peak_live_pairs,
        rss.map(fmt_bytes).unwrap_or_else(|| "n/a".into()),
        match within {
            Some(true) => "yes",
            Some(false) => "NO",
            None => "n/a",
        },
    );
    report.push(ResultRow {
        experiment: "scale".into(),
        dataset: format!("{D}D-points-file"),
        method: "EMST-Streaming".into(),
        threads: max_t,
        n,
        seconds: secs,
        extra: Some(serde_json::json!({
            "ingest_seconds": ingest_secs,
            "batch_cap_pairs": cap as u64,
            "batches": stats.rounds,
            "peak_live_pairs": stats.peak_live_pairs,
            "peak_pair_bytes": stats.peak_pair_bytes,
            "bccp_calls": stats.bccp_calls,
            "max_memory_bytes": opts.max_memory,
            "peak_rss_bytes": rss.unwrap_or(0),
            "rss_within_budget": within.unwrap_or(false),
            "pool": pool,
        })),
    });
    if opts.strict_memory {
        match within {
            Some(true) => true,
            Some(false) => {
                eprintln!("scale: peak RSS exceeded --max-memory under --strict-memory — failing");
                false
            }
            None => {
                eprintln!("scale: RSS unavailable on this platform; --strict-memory passes");
                true
            }
        }
    } else {
        true
    }
}

fn main() {
    let opts = parse_args();
    if opts.trace.is_some() {
        // Must precede the first span: enabling pins the trace epoch.
        parclust_obs::trace::enable();
    }
    let run_all = opts.experiments.iter().any(|e| e == "all");
    let want = |name: &str| run_all || opts.experiments.iter().any(|e| e == name);
    say!(
        "repro: scale={} reps={} minPts={} max threads={}",
        opts.scale,
        opts.reps,
        opts.min_pts,
        thread_counts().last().unwrap()
    );

    let mut report = Report::default();
    if want("table4") || want("table2") {
        table4_and_2(&opts, &mut report);
    }
    if want("table3") {
        table3(&opts, &mut report);
    }
    if want("table5") {
        table5(&opts, &mut report);
    }
    if want("fig6") {
        figures_6_7(&opts, &mut report, "fig6");
    }
    if want("fig7") {
        figures_6_7(&opts, &mut report, "fig7");
    }
    if want("fig8") {
        fig8(&opts, &mut report);
    }
    if want("fig9") {
        fig9(&opts, &mut report);
    }
    if want("fig10") {
        fig10(&opts, &mut report);
    }
    if want("memory") {
        memory(&opts, &mut report);
    }
    if want("minpts") {
        minpts(&opts, &mut report);
    }
    if want("ablation") {
        ablation(&opts, &mut report);
    }
    if want("extract") {
        extraction(&opts, &mut report);
    }
    // Explicit-only: multi-million-point streaming run sized for nightly.
    let mut scale_ok = true;
    if opts.experiments.iter().any(|e| e == "scale") {
        scale_ok = scale_experiment(&opts, &mut report);
    }

    let out = opts.out_dir.join("repro.json");
    report
        .write(&out)
        .unwrap_or_else(|e| CLI.fail(format_args!("write {}: {e}", out.display())));
    say!("\nwrote {} rows to {}", report.rows.len(), out.display());

    if let Some(path) = &opts.trace {
        parclust_obs::trace::disable();
        let json = parclust_obs::export::drain_chrome_json();
        CLI.write_file(path, &json);
        say!(
            "wrote Chrome trace to {} ({} bytes)",
            path.display(),
            json.len()
        );
    }
    if !scale_ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parclust_bench::gate::read_metrics;

    #[test]
    fn table2_metrics_are_gated_speedups() {
        let mut report = Report::default();
        push_table2(&mut report, "ds1", "EMST-MemoGFK", 4, 1.5, 2.0);
        push_table2(&mut report, "ds2", "EMST-MemoGFK", 4, 1.25, 1.75);
        // Only table2 rows feed the gate; the written report carries them.
        report.push(ResultRow {
            experiment: "table4".into(),
            dataset: "ds1".into(),
            method: "EMST-MemoGFK".into(),
            threads: 1,
            n: 10,
            seconds: 9.0,
            extra: None,
        });
        let path = std::env::temp_dir().join(format!("repro-metrics-{}.json", std::process::id()));
        report.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let doc = serde_json::from_str(&text).unwrap();
        assert_eq!(
            doc.get("rows")
                .and_then(serde_json::Value::as_array)
                .map(<[_]>::len),
            Some(3)
        );
        let got: Vec<(String, f64, String, bool)> = read_metrics(&doc, None)
            .unwrap()
            .into_iter()
            .map(|m| (m.key, m.value, m.unit, m.gated))
            .collect();
        let want = |ds: &str, field: &str, v: f64| {
            (
                format!("table2/{ds}/EMST-MemoGFK/{field}"),
                v,
                "ratio".to_string(),
                true,
            )
        };
        assert_eq!(
            got,
            [
                want("ds1", "self_relative_speedup", 2.0),
                want("ds1", "speedup_over_best_seq", 1.5),
                want("ds2", "self_relative_speedup", 1.75),
                want("ds2", "speedup_over_best_seq", 1.25),
            ]
        );
    }
}
