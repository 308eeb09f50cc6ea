//! Shared harness for the reproduction binaries and criterion benches.
//!
//! The paper's evaluation (§5) runs 12 data sets (4 synthetic × sizes, 4
//! real) on a 48-core machine at n up to 24.9M. This harness reproduces the
//! *structure* of every table and figure at a scale configurable for the
//! current machine; `DATASETS` mirrors the paper's lineup with surrogate
//! generators standing in for the non-redistributable real data sets
//! (DESIGN.md, substitution 2).

pub mod cli;
pub mod gate;
pub mod kernels;
pub mod memory;

use serde::Serialize;
use std::time::Instant;

/// One benchmark data set: a name mirroring the paper's, a dimension, and
/// a baseline point count at `--scale 1.0`.
#[derive(Debug, Clone, Copy)]
pub struct DataSpec {
    pub name: &'static str,
    pub dims: usize,
    pub base_n: usize,
    pub kind: DataKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKind {
    Uniform,
    SeedSpreader,
    GpsLike,
    SensorLike,
}

/// The paper's 12-data-set lineup (Table 4/5 rows, Figure 6/7 panels),
/// scaled to laptop-class baseline sizes.
pub const DATASETS: &[DataSpec] = &[
    DataSpec {
        name: "2D-UniformFill",
        dims: 2,
        base_n: 100_000,
        kind: DataKind::Uniform,
    },
    DataSpec {
        name: "3D-UniformFill",
        dims: 3,
        base_n: 100_000,
        kind: DataKind::Uniform,
    },
    DataSpec {
        name: "5D-UniformFill",
        dims: 5,
        base_n: 50_000,
        kind: DataKind::Uniform,
    },
    DataSpec {
        name: "7D-UniformFill",
        dims: 7,
        base_n: 25_000,
        kind: DataKind::Uniform,
    },
    DataSpec {
        name: "2D-SS-varden",
        dims: 2,
        base_n: 100_000,
        kind: DataKind::SeedSpreader,
    },
    DataSpec {
        name: "3D-SS-varden",
        dims: 3,
        base_n: 100_000,
        kind: DataKind::SeedSpreader,
    },
    DataSpec {
        name: "5D-SS-varden",
        dims: 5,
        base_n: 50_000,
        kind: DataKind::SeedSpreader,
    },
    DataSpec {
        name: "7D-SS-varden",
        dims: 7,
        base_n: 25_000,
        kind: DataKind::SeedSpreader,
    },
    DataSpec {
        name: "3D-GeoLife-like",
        dims: 3,
        base_n: 150_000,
        kind: DataKind::GpsLike,
    },
    DataSpec {
        name: "7D-Household-like",
        dims: 7,
        base_n: 40_000,
        kind: DataKind::SensorLike,
    },
    DataSpec {
        name: "10D-HT-like",
        dims: 10,
        base_n: 25_000,
        kind: DataKind::SensorLike,
    },
    DataSpec {
        name: "16D-CHEM-like",
        dims: 16,
        base_n: 15_000,
        kind: DataKind::SensorLike,
    },
];

/// Look up a data set by (case-insensitive) name.
pub fn dataset(name: &str) -> Option<&'static DataSpec> {
    DATASETS.iter().find(|d| d.name.eq_ignore_ascii_case(name))
}

/// Generate the points of `spec` at `n` points and hand them, with their
/// concrete dimension, to the visitor macro below. (Rust needs the const
/// dimension at the call site; this macro is the single dispatch point.)
#[macro_export]
macro_rules! with_points {
    ($spec:expr, $n:expr, |$pts:ident| $body:expr) => {{
        use parclust_data::{gps_like, seed_spreader, sensor_like, uniform_fill};
        use $crate::DataKind;
        let spec: &$crate::DataSpec = $spec;
        let n: usize = $n;
        match (spec.kind, spec.dims) {
            (DataKind::Uniform, 2) => {
                let $pts = uniform_fill::<2>(n, 42);
                $body
            }
            (DataKind::Uniform, 3) => {
                let $pts = uniform_fill::<3>(n, 42);
                $body
            }
            (DataKind::Uniform, 5) => {
                let $pts = uniform_fill::<5>(n, 42);
                $body
            }
            (DataKind::Uniform, 7) => {
                let $pts = uniform_fill::<7>(n, 42);
                $body
            }
            (DataKind::SeedSpreader, 2) => {
                let $pts = seed_spreader::<2>(n, 42);
                $body
            }
            (DataKind::SeedSpreader, 3) => {
                let $pts = seed_spreader::<3>(n, 42);
                $body
            }
            (DataKind::SeedSpreader, 5) => {
                let $pts = seed_spreader::<5>(n, 42);
                $body
            }
            (DataKind::SeedSpreader, 7) => {
                let $pts = seed_spreader::<7>(n, 42);
                $body
            }
            (DataKind::GpsLike, 3) => {
                let $pts = gps_like(n, 42);
                $body
            }
            (DataKind::SensorLike, 7) => {
                let $pts = sensor_like::<7>(n, 42, 8);
                $body
            }
            (DataKind::SensorLike, 10) => {
                let $pts = sensor_like::<10>(n, 42, 8);
                $body
            }
            (DataKind::SensorLike, 16) => {
                let $pts = sensor_like::<16>(n, 42, 12);
                $body
            }
            (kind, dims) => unreachable!("no generator for {:?} in {} dims", kind, dims),
        }
    }};
}

/// Best-of-`reps` timing: one pool is built up front (worker spawning never
/// lands inside the timed region) and every repetition is timed — including
/// the first, cold-cache one — with the fastest returned.
pub fn best_time<T: Send>(threads: usize, reps: usize, f: impl FnMut() -> T + Send) -> (T, f64) {
    let (out, secs, _) = best_time_with_metrics(threads, reps, f);
    (out, secs)
}

/// [`best_time`] plus the pool's work-distribution counters (jobs per
/// worker, steal attempts/hits, injector pushes, idle parks) accumulated
/// over *all* repetitions, serialized for a [`ResultRow`]'s `extra` field.
pub fn best_time_with_metrics<T: Send>(
    threads: usize,
    reps: usize,
    mut f: impl FnMut() -> T + Send,
) -> (T, f64, serde_json::Value) {
    assert!(reps >= 1);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let mut best: Option<(T, f64)> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = pool.install(&mut f);
        let secs = t0.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, b)| secs < *b) {
            best = Some((out, secs));
        }
    }
    let (out, secs) = best.unwrap();
    (out, secs, pool_metrics_json(&pool.metrics()))
}

/// Serialize a pool's counters for bench JSON: totals plus the per-worker
/// job split (the work-imbalance signal).
pub fn pool_metrics_json(m: &rayon::PoolMetrics) -> serde_json::Value {
    let jobs_per_worker: Vec<u64> = m.workers.iter().map(|w| w.jobs).collect();
    serde_json::json!({
        "workers": m.workers.len() as u64,
        "jobs": m.total_jobs(),
        "steal_attempts": m.total_steal_attempts(),
        "steal_hits": m.total_steal_hits(),
        "injected": m.injected,
        "parks": m.total_parks(),
        "jobs_per_worker": jobs_per_worker,
    })
}

/// Largest pool width the harness benches at: `PARCLUST_MAX_THREADS` when
/// set to a positive integer (the `repro --threads` flag routes through
/// it), otherwise the hardware parallelism. Oversubscription is allowed —
/// benching 4-thread pools on a smaller machine measures scheduling
/// overhead honestly rather than silently clamping.
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("PARCLUST_MAX_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The thread counts exercised by the speedup figures: 1, 2, 4, ... up to
/// [`max_threads`] (always including the maximum).
pub fn thread_counts() -> Vec<usize> {
    let max = max_threads();
    let mut ts = vec![1usize];
    let mut t = 2;
    while t < max {
        ts.push(t);
        t *= 2;
    }
    if max > 1 {
        ts.push(max);
    }
    ts.dedup();
    ts
}

/// A generic result row serialized into the JSON report next to the text
/// tables.
#[derive(Debug, Clone, Serialize)]
pub struct ResultRow {
    pub experiment: String,
    pub dataset: String,
    pub method: String,
    pub threads: usize,
    pub n: usize,
    pub seconds: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub extra: Option<serde_json::Value>,
}

/// Collects rows and writes them as pretty JSON at the end of a run.
#[derive(Default)]
pub struct Report {
    pub rows: Vec<ResultRow>,
}

impl Report {
    pub fn push(&mut self, row: ResultRow) {
        self.rows.push(row);
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let json = serde_json::to_string_pretty(&self.rows).expect("serializable rows");
        std::fs::write(path, json)
    }
}

/// Format seconds compactly for table cells.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn dataset_lookup() {
        assert!(dataset("2D-UniformFill").is_some());
        assert!(dataset("2d-uniformfill").is_some());
        assert!(dataset("nonexistent").is_none());
        assert_eq!(DATASETS.len(), 12, "paper lineup has 12 data sets");
    }

    #[test]
    fn with_points_dispatches_every_spec() {
        for spec in DATASETS {
            let n = 500;
            let got = with_points!(spec, n, |pts| pts.len());
            assert_eq!(got, n, "{}", spec.name);
        }
    }

    #[test]
    fn thread_counts_start_at_one() {
        let ts = thread_counts();
        assert_eq!(ts[0], 1);
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn timing_returns_result() {
        let (v, secs) = best_time(1, 2, || 7 * 6);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn timing_with_metrics_reports_pool_counters() {
        use rayon::prelude::*;
        let (sum, _, pool) = best_time_with_metrics(2, 2, || {
            (0..10_000u64).into_par_iter().with_min_len(16).sum::<u64>()
        });
        assert_eq!(sum, 10_000 * 9_999 / 2);
        assert_eq!(pool.get("workers").and_then(Value::as_u64), Some(2));
        assert!(pool.get("jobs").and_then(Value::as_u64).unwrap() > 0);
        let per_worker: u64 = pool
            .get("jobs_per_worker")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .sum();
        assert_eq!(
            Some(per_worker),
            pool.get("jobs").and_then(Value::as_u64),
            "per-worker jobs must sum to the total"
        );
        assert!(
            pool.get("steal_attempts").and_then(Value::as_u64)
                >= pool.get("steal_hits").and_then(Value::as_u64)
        );
    }
}
