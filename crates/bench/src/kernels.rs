//! Distance-kernel micro-harness: the SoA lane kernels against the scalar
//! gather reference, in the two access shapes the pipelines actually use.
//!
//! * **BCCP pair loop** — every point of a 64-point side A against a
//!   64-point side B (`BRUTE_FORCE_PRODUCT` geometry), reducing the min
//!   with the same `(u, v)` tie-break as `parclust_wspd::bccp`.
//! * **kNN batch** — one query against consecutive 16-point subtree
//!   segments (`KNN_BATCH` geometry), tracking the running nearest.
//!
//! Both workloads run the lane kernel ([`PointBlock::dist_sq_into`]) and
//! the per-point scalar reference ([`PointBlock::dist_sq_into_scalar`])
//! over identical data, so `scalar_secs / lane_secs` is the vectorization
//! speedup the `kernel_bench` JSON records and CI gates (both against the
//! committed baseline and against an absolute `--require` floor).
//!
//! The harness has two consumers: the `kernel_bench` binary (JSON for the
//! gate, and the way to time the kernels locally) and the unit tests (the
//! two variants must agree bitwise).

use crate::gate::{metrics_json, Metric};
use parclust_data::{uniform_fill, PointBlock, BLOCK_LEN};
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

/// Dimensionality the kernel harness runs at. 5-d sits in the middle of
/// the paper's 2–16-d lineup: wide enough that distance math dominates,
/// narrow enough that a lane pass still fits in cache.
const KERNEL_DIMS: usize = 5;

/// Points per harness block: 64 BCCP sides of `BLOCK_LEN` points.
const KERNEL_POINTS: usize = 64 * BLOCK_LEN;

/// Queries per kNN-batch pass.
const KNN_QUERIES: usize = 64;

/// Candidates per kNN batch call (mirrors `parclust_kdtree::KNN_BATCH`).
const KNN_SEGMENT: usize = 16;

/// Lane and scalar wall times for one kernel workload.
#[derive(Debug, Clone, Copy)]
pub struct KernelTimes {
    pub lane_secs: f64,
    pub scalar_secs: f64,
}

impl KernelTimes {
    /// How much faster the lane kernel is than the scalar reference.
    pub fn speedup_vs_scalar(&self) -> f64 {
        self.scalar_secs / self.lane_secs
    }

    fn to_json(self) -> Value {
        json!({
            "lane_secs": self.lane_secs,
            "scalar_secs": self.scalar_secs,
            "speedup_vs_scalar": self.speedup_vs_scalar(),
        })
    }
}

/// The deterministic point block every kernel pass runs over.
fn kernel_block() -> PointBlock<KERNEL_DIMS> {
    PointBlock::from_points(&uniform_fill::<KERNEL_DIMS>(KERNEL_POINTS, 42))
}

/// One BCCP-shaped pass: all (A, B) side pairs of consecutive 64-point
/// ranges, min-reduced like `parclust_wspd::bccp`'s brute-force leaf case.
/// Returns the global min (the sink that keeps the loop honest).
fn bccp_pass<const D: usize>(block: &PointBlock<D>, lane: bool) -> f64 {
    let sides = block.len() / BLOCK_LEN;
    let mut buf = [0.0f64; BLOCK_LEN];
    let mut best = f64::INFINITY;
    for a in 0..sides {
        let b = (a + 1) % sides;
        let b_start = b * BLOCK_LEN;
        for u in a * BLOCK_LEN..(a + 1) * BLOCK_LEN {
            let q = block.get(u);
            if lane {
                block.dist_sq_into(&q, b_start, BLOCK_LEN, &mut buf);
            } else {
                block.dist_sq_into_scalar(&q, b_start, BLOCK_LEN, &mut buf);
            }
            for &d_sq in &buf {
                if d_sq < best {
                    best = d_sq;
                }
            }
        }
    }
    best
}

/// One kNN-batch-shaped pass: each query point swept over every 16-point
/// segment of the block, tracking the nearest non-self candidate.
fn knn_batch_pass<const D: usize>(block: &PointBlock<D>, lane: bool) -> f64 {
    let mut buf = [0.0f64; KNN_SEGMENT];
    let mut sink = 0.0;
    for qi in 0..KNN_QUERIES {
        let q = block.get(qi * (block.len() / KNN_QUERIES));
        let mut best = f64::INFINITY;
        let mut start = 0;
        while start + KNN_SEGMENT <= block.len() {
            if lane {
                block.dist_sq_into(&q, start, KNN_SEGMENT, &mut buf);
            } else {
                block.dist_sq_into_scalar(&q, start, KNN_SEGMENT, &mut buf);
            }
            for &d_sq in &buf {
                if d_sq > 0.0 && d_sq < best {
                    best = d_sq;
                }
            }
            start += KNN_SEGMENT;
        }
        sink += best;
    }
    sink
}

fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Time the BCCP pair loop, lane vs scalar, best of `reps`.
pub fn bccp_pair_loop(reps: usize) -> KernelTimes {
    let block = kernel_block();
    KernelTimes {
        lane_secs: best_of(reps, || bccp_pass(&block, true)),
        scalar_secs: best_of(reps, || bccp_pass(&block, false)),
    }
}

/// Time the kNN batch sweep, lane vs scalar, best of `reps`.
pub fn knn_batch(reps: usize) -> KernelTimes {
    let block = kernel_block();
    KernelTimes {
        lane_secs: best_of(reps, || knn_batch_pass(&block, true)),
        scalar_secs: best_of(reps, || knn_batch_pass(&block, false)),
    }
}

/// Run every kernel workload, best of `reps` each.
pub fn run_kernels(reps: usize) -> Vec<(&'static str, KernelTimes)> {
    vec![
        ("bccp_pair_loop", bccp_pair_loop(reps)),
        ("knn_batch", knn_batch(reps)),
    ]
}

/// The `kernel_bench` report: each kernel's times by name, plus the
/// gate's `metrics` list with one gated `kernels/NAME/speedup_vs_scalar`
/// per kernel.
pub fn kernels_json(results: &[(&str, KernelTimes)]) -> Value {
    let metrics: Vec<Metric> = results
        .iter()
        .map(|(name, t)| {
            Metric::gated(
                format!("kernels/{name}/speedup_vs_scalar"),
                t.speedup_vs_scalar(),
                "ratio",
            )
        })
        .collect();
    let mut fields: Vec<(String, Value)> = results
        .iter()
        .map(|(name, t)| (name.to_string(), t.to_json()))
        .collect();
    fields.push(("metrics".to_string(), metrics_json(&metrics)));
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_and_scalar_passes_agree_bitwise() {
        let block = kernel_block();
        // The sinks are built purely from kernel outputs, so bit-equal
        // sinks ⇒ the kernels returned bit-equal distances along the
        // reduction path. (Full per-slot equality is pinned in
        // parclust-data's own tests.)
        assert_eq!(bccp_pass(&block, true), bccp_pass(&block, false));
        assert_eq!(knn_batch_pass(&block, true), knn_batch_pass(&block, false));
    }

    #[test]
    fn kernels_json_has_gateable_shape() {
        let v = kernels_json(&run_kernels(1));
        let metrics = crate::gate::read_metrics(&v, None).unwrap();
        let keys: Vec<&str> = metrics.iter().map(|m| m.key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "kernels/bccp_pair_loop/speedup_vs_scalar",
                "kernels/knn_batch/speedup_vs_scalar",
            ]
        );
        for m in &metrics {
            assert!(m.gated, "{}: speedups are gated", m.key);
            assert_eq!(m.unit, "ratio", "{}", m.key);
            assert!(m.value > 0.0, "{}: {}", m.key, m.value);
            // The list repeats the per-kernel section's own number.
            let kernel = m.key.split('/').nth(1).unwrap();
            let reported = v
                .get(kernel)
                .and_then(|k| k.get("speedup_vs_scalar"))
                .and_then(Value::as_f64);
            assert_eq!(reported, Some(m.value), "{}", m.key);
        }
    }
}
