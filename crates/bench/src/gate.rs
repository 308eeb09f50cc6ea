//! Bench-regression gate: diff a fresh smoke run against a committed
//! baseline and fail on slowdowns beyond a tolerance.
//!
//! Metrics are deliberately restricted to quantities that transfer across
//! machines better than raw seconds: the table2 speedup ratios
//! (dimensionless) and the serving throughputs the roadmap tracks. Raw
//! per-experiment seconds are *not* gated — CI hardware differs from the
//! machine that recorded the baseline. `requests_per_sec` is reported but
//! ungated (latency-bound, noisier than batch throughput).
//!
//! Driven by the `compare_bench` binary; see README "Bench regression
//! gate" for the CI wiring and the override knobs.

use serde_json::Value;

/// Default failure threshold: >25% below baseline fails the gate.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// One comparable quantity extracted from a bench JSON file. `gated`
/// metrics fail the gate when they regress; ungated ones are reported
/// only.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub key: String,
    pub value: f64,
    pub gated: bool,
}

/// Extract metrics from a `repro.json`-style array of result rows.
pub fn metrics_from_rows(rows: &Value) -> Vec<Metric> {
    let mut out = Vec::new();
    let Some(items) = rows.as_array() else {
        return out;
    };
    for row in items {
        let experiment = row.get("experiment").and_then(Value::as_str).unwrap_or("");
        if experiment != "table2" {
            continue;
        }
        let dataset = row.get("dataset").and_then(Value::as_str).unwrap_or("?");
        let method = row.get("method").and_then(Value::as_str).unwrap_or("?");
        let Some(extra) = row.get("extra") else {
            continue;
        };
        for field in ["self_relative_speedup", "speedup_over_best_seq"] {
            if let Some(v) = extra.get(field).and_then(Value::as_f64) {
                out.push(Metric {
                    key: format!("table2/{dataset}/{method}/{field}"),
                    value: v,
                    gated: true,
                });
            }
        }
    }
    out
}

/// Extract metrics from a `loadgen --out` report, labeled by serving
/// configuration (e.g. `t4` = 4 pool threads).
pub fn metrics_from_loadgen(label: &str, v: &Value) -> Vec<Metric> {
    let mut out = Vec::new();
    if let Some(x) = v.get("assign_points_per_sec").and_then(Value::as_f64) {
        out.push(Metric {
            key: format!("serving/{label}/assign_points_per_sec"),
            value: x,
            gated: true,
        });
    }
    if let Some(x) = v.get("requests_per_sec").and_then(Value::as_f64) {
        out.push(Metric {
            key: format!("serving/{label}/requests_per_sec"),
            value: x,
            gated: false,
        });
    }
    // Latency quantiles are tracked but never gated: they are bucket upper
    // bounds from a log-spaced histogram, so a one-bucket jitter would be a
    // 2x "regression" on an otherwise healthy run.
    for field in ["latency_p50_ms", "latency_p99_ms"] {
        if let Some(x) = v.get(field).and_then(Value::as_f64) {
            out.push(Metric {
                key: format!("serving/{label}/{field}"),
                value: x,
                gated: false,
            });
        }
    }
    out
}

/// Extract metrics from a `kernel_bench --out` report: an object mapping
/// kernel names to `{lane_secs, scalar_secs, speedup_vs_scalar}`. The
/// speedup is dimensionless (same machine, same run, lane vs scalar), so
/// it transfers across hardware and is gated.
pub fn metrics_from_kernels(v: &Value) -> Vec<Metric> {
    let mut out = Vec::new();
    let Some(map) = v.as_object() else {
        return out;
    };
    for (kernel, blob) in map {
        if let Some(s) = blob.get("speedup_vs_scalar").and_then(Value::as_f64) {
            out.push(Metric {
                key: format!("kernels/{kernel}/speedup_vs_scalar"),
                value: s,
                gated: true,
            });
        }
    }
    out
}

/// Extract metrics from a `dyn_bench --out` report: incremental-mutation
/// throughput plus the merge/rebuild path split. Throughput is gated; the
/// path counts are informational (they say whether batches carried core
/// distances over, which describes the workload, not its speed).
pub fn metrics_from_dynamic(v: &Value) -> Vec<Metric> {
    let mut out = Vec::new();
    if let Some(x) = v.get("insert_pts_per_s").and_then(Value::as_f64) {
        out.push(Metric {
            key: "dynamic/insert_pts_per_s".to_string(),
            value: x,
            gated: true,
        });
    }
    for field in ["merge_batches", "rebuild_batches"] {
        if let Some(x) = v.get(field).and_then(Value::as_f64) {
            out.push(Metric {
                key: format!("dynamic/{field}"),
                value: x,
                gated: false,
            });
        }
    }
    out
}

/// Extract every metric from a committed `BENCH_prN.json` baseline:
/// a `rows` array (repro rows), a `serving` object mapping labels to
/// loadgen reports, a `kernels` object of kernel-bench reports, and/or a
/// `dynamic` object holding a dyn-bench report. A bare rows array is also
/// accepted.
pub fn metrics_from_baseline(v: &Value) -> Vec<Metric> {
    let mut out = Vec::new();
    if v.as_array().is_some() {
        out.extend(metrics_from_rows(v));
        return out;
    }
    if let Some(rows) = v.get("rows") {
        out.extend(metrics_from_rows(rows));
    }
    if let Some(serving) = v.get("serving").and_then(Value::as_object) {
        for (label, blob) in serving {
            out.extend(metrics_from_loadgen(label, blob));
        }
    }
    if let Some(kernels) = v.get("kernels") {
        out.extend(metrics_from_kernels(kernels));
    }
    if let Some(dynamic) = v.get("dynamic") {
        out.extend(metrics_from_dynamic(dynamic));
    }
    out
}

/// Assemble a committed-baseline document (the `BENCH_prN.json` shape)
/// from a run's raw inputs: `row_sets` are repro row arrays (concatenated),
/// `serving` maps labels to loadgen reports. The result round-trips through
/// [`metrics_from_baseline`] — CI writes this next to its bench artifacts
/// so refreshing the committed baseline is download-and-commit, not a
/// hand-assembled JSON.
pub fn baseline_json(
    note: &str,
    row_sets: &[Value],
    serving: &[(String, Value)],
    kernels: Option<&Value>,
    dynamic: Option<&Value>,
) -> Value {
    let mut rows = Vec::new();
    for set in row_sets {
        if let Some(items) = set.as_array() {
            rows.extend(items.iter().cloned());
        }
    }
    let mut fields = vec![
        ("note".to_string(), Value::String(note.to_string())),
        ("rows".to_string(), Value::Array(rows)),
        ("serving".to_string(), Value::Object(serving.to_vec())),
    ];
    if let Some(k) = kernels {
        fields.push(("kernels".to_string(), k.clone()));
    }
    if let Some(d) = dynamic {
        fields.push(("dynamic".to_string(), d.clone()));
    }
    Value::Object(fields)
}

/// One baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub key: String,
    pub baseline: f64,
    pub current: f64,
    /// `current / baseline`; above 1.0 is an improvement.
    pub ratio: f64,
    pub gated: bool,
    pub regressed: bool,
}

/// Outcome of a gate run.
#[derive(Debug)]
pub struct GateOutcome {
    pub comparisons: Vec<Comparison>,
    /// Gated metrics present on both sides.
    pub shared_gated: usize,
    /// Gated metrics that regressed beyond the tolerance.
    pub failures: usize,
}

impl GateOutcome {
    /// The gate passes only if at least one gated metric was compared and
    /// none regressed — zero shared metrics means the wiring is broken,
    /// which must fail loudly rather than silently green-light.
    pub fn passed(&self) -> bool {
        self.shared_gated > 0 && self.failures == 0
    }
}

/// Compare `current` metrics against `baseline` at the given tolerance:
/// a gated metric regresses when `current < baseline * (1 - tolerance)`.
pub fn compare(baseline: &[Metric], current: &[Metric], tolerance: f64) -> GateOutcome {
    let mut comparisons = Vec::new();
    let mut shared_gated = 0;
    let mut failures = 0;
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.key == b.key) else {
            continue;
        };
        let ratio = if b.value > 0.0 {
            c.value / b.value
        } else {
            f64::INFINITY
        };
        let gated = b.gated && c.gated;
        let regressed = gated && ratio < 1.0 - tolerance;
        if gated {
            shared_gated += 1;
        }
        if regressed {
            failures += 1;
        }
        comparisons.push(Comparison {
            key: b.key.clone(),
            baseline: b.value,
            current: c.value,
            ratio,
            gated,
            regressed,
        });
    }
    GateOutcome {
        comparisons,
        shared_gated,
        failures,
    }
}

/// A cross-label ratio requirement on the *current* run: the numerator
/// label's `assign_points_per_sec` must be at least `min` times the
/// denominator label's. This is how CI enforces "the binary protocol beats
/// the JSON path by ≥1.5×" — a property of one run, unlike the
/// baseline-relative regression gate above.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioCheck {
    pub numerator: String,
    pub denominator: String,
    pub min: f64,
}

impl RatioCheck {
    /// Parse `NUM/DEN=MIN` (e.g. `t4bin/t4=1.5`).
    pub fn parse(spec: &str) -> Result<RatioCheck, String> {
        let (labels, min) = spec
            .split_once('=')
            .ok_or_else(|| format!("ratio spec {spec:?} must be NUM/DEN=MIN"))?;
        let (num, den) = labels
            .split_once('/')
            .ok_or_else(|| format!("ratio spec {spec:?} must be NUM/DEN=MIN"))?;
        let min: f64 = min
            .parse()
            .map_err(|_| format!("ratio minimum {min:?} must be a float"))?;
        if min.is_nan() || min <= 0.0 {
            return Err(format!("ratio minimum must be positive, got {min}"));
        }
        Ok(RatioCheck {
            numerator: num.to_string(),
            denominator: den.to_string(),
            min,
        })
    }

    fn throughput(&self, metrics: &[Metric], label: &str) -> Result<f64, String> {
        let key = format!("serving/{label}/assign_points_per_sec");
        metrics
            .iter()
            .find(|m| m.key == key)
            .map(|m| m.value)
            .ok_or_else(|| format!("metric {key} missing from the current run"))
    }

    /// Evaluate against the current run's metrics; `Ok(ratio)` when the
    /// requirement holds.
    pub fn evaluate(&self, current: &[Metric]) -> Result<f64, String> {
        let num = self.throughput(current, &self.numerator)?;
        let den = self.throughput(current, &self.denominator)?;
        if den <= 0.0 {
            return Err(format!(
                "serving/{}/assign_points_per_sec is {den}, ratio undefined",
                self.denominator
            ));
        }
        let ratio = num / den;
        if ratio < self.min {
            return Err(format!(
                "serving/{} is only {ratio:.2}x serving/{} (minimum {:.2}x)",
                self.numerator, self.denominator, self.min
            ));
        }
        Ok(ratio)
    }
}

/// An absolute floor on a kernel's vectorization speedup in the *current*
/// run: `kernels/NAME/speedup_vs_scalar` must be at least `min`. Unlike
/// the baseline-relative gate this pins a property the tentpole promises
/// outright (the SoA lane kernel beats the scalar gather by ≥ `min`×),
/// so a baseline refresh can never quietly ratchet it away.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelFloor {
    pub kernel: String,
    pub min: f64,
}

impl KernelFloor {
    /// Parse `NAME=MIN` (e.g. `bccp_pair_loop=1.3`).
    pub fn parse(spec: &str) -> Result<KernelFloor, String> {
        let (kernel, min) = spec
            .split_once('=')
            .ok_or_else(|| format!("kernel floor spec {spec:?} must be NAME=MIN"))?;
        let min: f64 = min
            .parse()
            .map_err(|_| format!("kernel floor minimum {min:?} must be a float"))?;
        if min.is_nan() || min <= 0.0 {
            return Err(format!("kernel floor minimum must be positive, got {min}"));
        }
        Ok(KernelFloor {
            kernel: kernel.to_string(),
            min,
        })
    }

    /// Evaluate against the current run's metrics; `Ok(speedup)` when the
    /// floor holds.
    pub fn evaluate(&self, current: &[Metric]) -> Result<f64, String> {
        let key = format!("kernels/{}/speedup_vs_scalar", self.kernel);
        let speedup = current
            .iter()
            .find(|m| m.key == key)
            .map(|m| m.value)
            .ok_or_else(|| format!("metric {key} missing from the current run"))?;
        if speedup < self.min {
            return Err(format!(
                "kernel {} is only {speedup:.2}x the scalar reference (floor {:.2}x)",
                self.kernel, self.min
            ));
        }
        Ok(speedup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn table2_row(dataset: &str, method: &str, self_rel: f64, over_best: f64) -> Value {
        json!({
            "experiment": "table2",
            "dataset": dataset,
            "method": method,
            "threads": 4u64,
            "n": 0u64,
            "seconds": 0.0,
            "extra": json!({
                "self_relative_speedup": self_rel,
                "speedup_over_best_seq": over_best,
            })
        })
    }

    #[test]
    fn extracts_table2_metrics_only() {
        let other = json!({"experiment": "table4", "dataset": "ds", "method": "m", "seconds": 9.0});
        let rows = Value::Array(vec![table2_row("ds", "EMST-MemoGFK", 2.0, 1.5), other]);
        let ms = metrics_from_rows(&rows);
        assert_eq!(ms.len(), 2);
        assert!(ms.iter().all(|m| m.gated));
        assert!(ms[0].key.starts_with("table2/ds/EMST-MemoGFK/"));
    }

    #[test]
    fn extracts_loadgen_metrics_with_gating_split() {
        let blob = json!({"requests_per_sec": 10_000.0, "assign_points_per_sec": 200_000.0});
        let ms = metrics_from_loadgen("t4", &blob);
        let assign = ms
            .iter()
            .find(|m| m.key == "serving/t4/assign_points_per_sec")
            .unwrap();
        assert!(assign.gated);
        let rps = ms
            .iter()
            .find(|m| m.key == "serving/t4/requests_per_sec")
            .unwrap();
        assert!(!rps.gated, "latency-bound metric is informational");
    }

    #[test]
    fn loadgen_latency_quantiles_are_tracked_but_ungated() {
        let blob = json!({
            "requests_per_sec": 10_000.0,
            "latency_p50_ms": 1.2,
            "latency_p90_ms": 3.4,
            "latency_p99_ms": 8.0,
        });
        let ms = metrics_from_loadgen("t4", &blob);
        for key in ["serving/t4/latency_p50_ms", "serving/t4/latency_p99_ms"] {
            let m = ms.iter().find(|m| m.key == key).unwrap();
            assert!(!m.gated, "{key} must never gate");
        }
        // p90 is report-only: present in loadgen output, not a baseline
        // metric (keeps the committed baseline schema minimal).
        assert!(!ms.iter().any(|m| m.key.contains("p90")));
        // Reports without quantiles (older baselines) still parse.
        let old = json!({"requests_per_sec": 5_000.0});
        assert_eq!(metrics_from_loadgen("t1", &old).len(), 1);
    }

    #[test]
    fn baseline_combines_rows_and_serving() {
        let baseline = json!({
            "note": "x",
            "rows": Value::Array(vec![table2_row("ds", "m", 2.0, 1.5)]),
            "serving": json!({"t1": json!({"assign_points_per_sec": 1000.0})}),
        });
        let ms = metrics_from_baseline(&baseline);
        assert_eq!(ms.len(), 3);
        assert!(ms
            .iter()
            .any(|m| m.key == "serving/t1/assign_points_per_sec"));
    }

    #[test]
    fn baseline_json_round_trips_through_metrics() {
        // What CI writes as a refresh candidate must yield exactly the
        // metrics the gate would extract from a committed baseline.
        let rows = Value::Array(vec![table2_row("ds", "EMST-MemoGFK", 2.0, 1.5)]);
        let serving = vec![(
            "t4".to_string(),
            json!({"assign_points_per_sec": 1000.0, "requests_per_sec": 10.0}),
        )];
        let kernels = json!({"bccp_pair_loop": json!({"speedup_vs_scalar": 1.7})});
        let dynamic = json!({
            "insert_pts_per_s": 50_000.0,
            "merge_batches": 28.0,
            "rebuild_batches": 4.0,
        });
        let doc = baseline_json(
            "refresh candidate",
            std::slice::from_ref(&rows),
            &serving,
            Some(&kernels),
            Some(&dynamic),
        );
        let mut expected = metrics_from_rows(&rows);
        expected.extend(metrics_from_loadgen("t4", &serving[0].1));
        expected.extend(metrics_from_kernels(&kernels));
        expected.extend(metrics_from_dynamic(&dynamic));
        assert_eq!(metrics_from_baseline(&doc), expected);
        // And it survives an actual serialize/parse cycle.
        let reparsed = crate::gate::tests::reparse(&doc);
        assert_eq!(metrics_from_baseline(&reparsed), expected);
    }

    fn reparse(v: &Value) -> Value {
        serde_json::from_str(&v.to_json_string_pretty()).unwrap()
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let base = vec![Metric {
            key: "k".into(),
            value: 100.0,
            gated: true,
        }];
        let ok = vec![Metric {
            key: "k".into(),
            value: 80.0,
            gated: true,
        }];
        let bad = vec![Metric {
            key: "k".into(),
            value: 74.0,
            gated: true,
        }];
        assert!(compare(&base, &ok, 0.25).passed(), "-20% is inside 25%");
        let out = compare(&base, &bad, 0.25);
        assert!(!out.passed(), "-26% must fail");
        assert_eq!(out.failures, 1);
        // Improvements always pass.
        let better = vec![Metric {
            key: "k".into(),
            value: 500.0,
            gated: true,
        }];
        assert!(compare(&base, &better, 0.25).passed());
    }

    #[test]
    fn gate_fails_with_no_shared_metrics() {
        let base = vec![Metric {
            key: "a".into(),
            value: 1.0,
            gated: true,
        }];
        let cur = vec![Metric {
            key: "b".into(),
            value: 1.0,
            gated: true,
        }];
        let out = compare(&base, &cur, 0.25);
        assert_eq!(out.shared_gated, 0);
        assert!(!out.passed(), "broken wiring must not pass silently");
    }

    #[test]
    fn kernel_metrics_are_gated_speedups() {
        let blob = json!({
            "bccp_pair_loop": json!({
                "lane_secs": 0.01, "scalar_secs": 0.02, "speedup_vs_scalar": 2.0
            }),
            "knn_batch": json!({
                "lane_secs": 0.01, "scalar_secs": 0.015, "speedup_vs_scalar": 1.5
            }),
        });
        let ms = metrics_from_kernels(&blob);
        assert_eq!(ms.len(), 2);
        assert!(ms.iter().all(|m| m.gated));
        assert!(ms
            .iter()
            .any(|m| m.key == "kernels/bccp_pair_loop/speedup_vs_scalar" && m.value == 2.0));
        // A baseline with a kernels section round-trips through the
        // extractor.
        let baseline = json!({"note": "x", "kernels": blob});
        let from_base = metrics_from_baseline(&baseline);
        assert_eq!(from_base, ms);
    }

    #[test]
    fn dynamic_metrics_gate_throughput_only() {
        let blob = json!({
            "insert_pts_per_s": 42_000.0,
            "merge_batches": 30.0,
            "rebuild_batches": 2.0,
            "n_final": 10_000.0,
        });
        let ms = metrics_from_dynamic(&blob);
        let thr = ms
            .iter()
            .find(|m| m.key == "dynamic/insert_pts_per_s")
            .unwrap();
        assert!(thr.gated);
        assert_eq!(thr.value, 42_000.0);
        for key in ["dynamic/merge_batches", "dynamic/rebuild_batches"] {
            let m = ms.iter().find(|m| m.key == key).unwrap();
            assert!(!m.gated, "{key} describes the workload, never gates");
        }
        // n_final is report-only, not a baseline metric.
        assert!(!ms.iter().any(|m| m.key.contains("n_final")));
        // A baseline with a dynamic section round-trips.
        let baseline = json!({"note": "x", "dynamic": blob});
        assert_eq!(metrics_from_baseline(&baseline), ms);
    }

    #[test]
    fn kernel_floor_parse_and_evaluate() {
        let floor = KernelFloor::parse("bccp_pair_loop=1.3").unwrap();
        assert_eq!(
            floor,
            KernelFloor {
                kernel: "bccp_pair_loop".into(),
                min: 1.3
            }
        );
        for bad in ["bccp_pair_loop", "x=notafloat", "x=-2"] {
            assert!(KernelFloor::parse(bad).is_err(), "{bad:?}");
        }
        let metrics = |s: f64| {
            metrics_from_kernels(&json!({
                "bccp_pair_loop": json!({"speedup_vs_scalar": s})
            }))
        };
        assert_eq!(floor.evaluate(&metrics(1.8)).unwrap(), 1.8);
        assert!(floor.evaluate(&metrics(1.1)).is_err(), "1.1x < 1.3x floor");
        // A missing kernel metric fails loudly instead of passing
        // vacuously.
        assert!(floor.evaluate(&[]).is_err());
    }

    #[test]
    fn ratio_check_parse_and_evaluate() {
        let rc = RatioCheck::parse("t4bin/t4=1.5").unwrap();
        assert_eq!(
            rc,
            RatioCheck {
                numerator: "t4bin".into(),
                denominator: "t4".into(),
                min: 1.5
            }
        );
        for bad in ["t4bin/t4", "t4bin=1.5", "a/b=x", "a/b=-1"] {
            assert!(RatioCheck::parse(bad).is_err(), "{bad:?}");
        }
        let metrics = |bin: f64, json: f64| {
            let mut m = metrics_from_loadgen("t4bin", &json!({"assign_points_per_sec": bin}));
            m.extend(metrics_from_loadgen(
                "t4",
                &json!({"assign_points_per_sec": json}),
            ));
            m
        };
        assert_eq!(rc.evaluate(&metrics(300.0, 100.0)).unwrap(), 3.0);
        assert!(rc.evaluate(&metrics(140.0, 100.0)).is_err(), "1.4x < 1.5x");
        // Missing labels fail loudly instead of passing vacuously.
        assert!(rc
            .evaluate(&metrics_from_loadgen(
                "t4",
                &json!({"assign_points_per_sec": 100.0})
            ))
            .is_err());
    }

    #[test]
    fn ungated_metrics_never_fail() {
        let base = vec![
            Metric {
                key: "gated".into(),
                value: 100.0,
                gated: true,
            },
            Metric {
                key: "info".into(),
                value: 100.0,
                gated: false,
            },
        ];
        let cur = vec![
            Metric {
                key: "gated".into(),
                value: 99.0,
                gated: true,
            },
            Metric {
                key: "info".into(),
                value: 1.0,
                gated: false,
            },
        ];
        let out = compare(&base, &cur, 0.25);
        assert!(out.passed(), "a collapsed ungated metric is reported only");
        assert_eq!(out.comparisons.len(), 2);
    }
}
