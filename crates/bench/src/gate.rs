//! Bench-regression gate: diff a fresh run against a committed baseline
//! and fail on slowdowns beyond a tolerance.
//!
//! Every bench binary (`repro` for table2, `kernel_bench`, `dyn_bench`,
//! `loadgen`) writes a top-level `"metrics"` list next to its own report,
//! one `{"key", "value", "unit", "gated"}` entry per comparable quantity.
//! The binary that measures a quantity decides whether it is gated; this
//! module only reads the lists, diffs them against the baseline (a
//! committed `BENCH_prN.json` is `{note, metrics}` in the same shape) and
//! evaluates [`Require`] checks on the current run.
//!
//! Driven by the `compare_bench` binary; see README "Bench regression
//! gate" for the CI wiring.

use serde_json::{json, Value};

/// Default failure threshold: >25% below baseline fails the gate.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// One comparable quantity of a bench run. `gated` metrics fail the gate
/// when they regress; ungated ones are reported only.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub key: String,
    pub value: f64,
    pub unit: String,
    pub gated: bool,
}

impl Metric {
    /// A metric that fails the gate when it drops below the baseline.
    pub fn gated(key: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            key: key.into(),
            value,
            unit: unit.to_string(),
            gated: true,
        }
    }

    /// A metric that is reported but never fails the gate.
    pub fn info(key: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            gated: false,
            ..Metric::gated(key, value, unit)
        }
    }
}

/// The `metrics` list a producer writes into its report.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Array(
        metrics
            .iter()
            .map(|m| json!({"key": m.key, "value": m.value, "unit": m.unit, "gated": m.gated}))
            .collect(),
    )
}

/// A committed-baseline document: a provenance note and a metrics list.
pub fn baseline_json(note: &str, metrics: &[Metric]) -> Value {
    json!({"note": note, "metrics": metrics_json(metrics)})
}

/// Read the `metrics` list of a bench JSON document. A `label` becomes
/// each key's second segment, so `serving/assign_points_per_sec` read
/// under `t4` is `serving/t4/assign_points_per_sec`. A missing list, a
/// malformed entry, a value that is not a finite number (the JSON writer
/// stores NaN and ±inf as `null`) or a key listed twice is an error.
pub fn read_metrics(doc: &Value, label: Option<&str>) -> Result<Vec<Metric>, String> {
    let entries = doc
        .get("metrics")
        .and_then(Value::as_array)
        .ok_or("no \"metrics\" list")?;
    let mut out: Vec<Metric> = Vec::with_capacity(entries.len());
    for entry in entries {
        let key = entry
            .get("key")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("metric entry without a key: {entry}"))?;
        let key = match label {
            Some(label) => key.replacen('/', &format!("/{label}/"), 1),
            None => key.to_string(),
        };
        let value = entry
            .get("value")
            .and_then(Value::as_f64)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {key}: value is not a finite number"))?;
        let unit = entry
            .get("unit")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("metric {key}: no unit"))?;
        let gated = entry
            .get("gated")
            .and_then(Value::as_bool)
            .ok_or_else(|| format!("metric {key}: no gated flag"))?;
        if out.iter().any(|m| m.key == key) {
            return Err(format!("metric {key} is listed twice"));
        }
        out.push(Metric {
            key,
            value,
            unit: unit.to_string(),
            gated,
        });
    }
    Ok(out)
}

/// Join the current run's lists, each named by the file it came from. A
/// key that two files supply, or whose unit differs from the baseline's,
/// is an error naming the key and the file.
pub fn join_current(
    baseline: &[Metric],
    runs: Vec<(String, Vec<Metric>)>,
) -> Result<Vec<Metric>, String> {
    let mut out: Vec<Metric> = Vec::new();
    for (file, metrics) in runs {
        for m in metrics {
            if out.iter().any(|c| c.key == m.key) {
                return Err(format!(
                    "{file}: metric {} repeats a key of an earlier --current file",
                    m.key
                ));
            }
            if let Some(b) = baseline.iter().find(|b| b.key == m.key && b.unit != m.unit) {
                return Err(format!(
                    "{file}: metric {} is in {:?} but the baseline's is in {:?}",
                    m.key, m.unit, b.unit
                ));
            }
            out.push(m);
        }
    }
    Ok(out)
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
/// a metric gated on both sides regresses when
/// `current < baseline * (1 - tolerance)`.
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

/// A requirement on the current run alone: `KEY>=MIN` is an absolute
/// floor (the BCCP lane kernel at least 1.3× the scalar gather), and
/// `KEY>=F*KEY` a ratio between two metrics (binary assign throughput at
/// least 1.5× JSON). Unlike the baseline-relative gate, a baseline
/// refresh can never ratchet these away.
#[derive(Debug, Clone, PartialEq)]
pub struct Require {
    pub key: String,
    pub min: f64,
    /// The metric `min` multiplies; `None` for an absolute floor.
    pub of: Option<String>,
}

impl Require {
    /// Parse `KEY>=MIN` or `KEY>=F*KEY`.
    pub fn parse(spec: &str) -> Result<Require, String> {
        let bad = || format!("requirement {spec:?} must be KEY>=MIN or KEY>=F*KEY");
        let (key, rhs) = spec.split_once(">=").ok_or_else(bad)?;
        let (min, of) = match rhs.split_once('*') {
            Some((factor, of)) => (factor, Some(of.to_string())),
            None => (rhs, None),
        };
        let min: f64 = min.parse().map_err(|_| bad())?;
        if key.is_empty() || of.as_deref() == Some("") || !(min.is_finite() && min > 0.0) {
            return Err(bad());
        }
        Ok(Require {
            key: key.to_string(),
            min,
            of,
        })
    }

    /// Evaluate against the current run's metrics: `Ok` with the observed
    /// value (or ratio) when the requirement holds. A missing metric
    /// fails instead of passing vacuously.
    pub fn evaluate(&self, current: &[Metric]) -> Result<f64, String> {
        let value = |key: &str| {
            current
                .iter()
                .find(|m| m.key == key)
                .map(|m| m.value)
                .ok_or_else(|| format!("metric {key} missing from the current run"))
        };
        let mut observed = value(&self.key)?;
        if let Some(of) = &self.of {
            let den = value(of)?;
            if den <= 0.0 {
                return Err(format!("{of} is {den}, ratio undefined"));
            }
            observed /= den;
        }
        if observed < self.min {
            return Err(format!("{self} does not hold: {observed:.2}"));
        }
        Ok(observed)
    }
}

impl std::fmt::Display for Require {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}>=", self.key)?;
        match &self.of {
            Some(of) => write!(f, "{}*{of}", self.min),
            None => write!(f, "{}", self.min),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(key: &str, value: f64, gated: bool) -> Metric {
        Metric {
            key: key.into(),
            value,
            unit: "ratio".into(),
            gated,
        }
    }

    fn reparse(v: &Value) -> Value {
        serde_json::from_str(&v.to_json_string_pretty()).unwrap()
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let base = vec![m("k", 100.0, true)];
        assert!(
            compare(&base, &[m("k", 80.0, true)], 0.25).passed(),
            "-20% is inside 25%"
        );
        let out = compare(&base, &[m("k", 74.0, true)], 0.25);
        assert!(!out.passed(), "-26% must fail");
        assert_eq!(out.failures, 1);
        // Improvements always pass.
        assert!(compare(&base, &[m("k", 500.0, true)], 0.25).passed());
    }

    #[test]
    fn gate_fails_with_no_shared_metrics() {
        let out = compare(&[m("a", 1.0, true)], &[m("b", 1.0, true)], 0.25);
        assert_eq!(out.shared_gated, 0);
        assert!(!out.passed(), "broken wiring must not pass silently");
        // Sharing only ungated metrics is the same broken wiring.
        let out = compare(&[m("a", 1.0, false)], &[m("a", 1.0, true)], 0.25);
        assert_eq!(out.shared_gated, 0);
        assert!(!out.passed());
    }

    #[test]
    fn ungated_metrics_never_fail() {
        let base = vec![m("gated", 100.0, true), m("info", 100.0, false)];
        let cur = vec![m("gated", 99.0, true), m("info", 1.0, false)];
        let out = compare(&base, &cur, 0.25);
        assert!(out.passed(), "a collapsed ungated metric is reported only");
        assert_eq!(out.comparisons.len(), 2);
    }

    #[test]
    fn baseline_json_round_trips_through_metrics() {
        // What `--write-baseline` writes must read back as exactly the
        // metrics it was written from, after a real serialize/parse cycle.
        let metrics = vec![
            Metric::gated("table2/ds/EMST-MemoGFK/self_relative_speedup", 1.5, "ratio"),
            Metric::gated("serving/t4/assign_points_per_sec", 1000.0, "points/s"),
            Metric::info("serving/t4/requests_per_sec", 10.0, "requests/s"),
        ];
        let doc = reparse(&baseline_json("refresh candidate", &metrics));
        assert_eq!(
            doc.get("note").and_then(Value::as_str),
            Some("refresh candidate")
        );
        assert_eq!(read_metrics(&doc, None).unwrap(), metrics);
    }

    #[test]
    fn baseline_combines_rows_and_serving() {
        // Labels namespace each file's keys, so one unlabeled table2 list
        // and two serving lists of the same shape join without clashing.
        let table2 = json!({"rows": Value::Array(Vec::new()), "metrics": metrics_json(&[
            Metric::gated("table2/ds/m/self_relative_speedup", 2.0, "ratio"),
        ])});
        let serving = |pps: f64| {
            json!({"requests_per_sec": 5.0, "metrics": metrics_json(&[
                Metric::gated("serving/assign_points_per_sec", pps, "points/s"),
            ])})
        };
        let runs = vec![
            (
                "repro.json".to_string(),
                read_metrics(&table2, None).unwrap(),
            ),
            (
                "t1.json".to_string(),
                read_metrics(&serving(1.0), Some("t1")).unwrap(),
            ),
            (
                "t4.json".to_string(),
                read_metrics(&serving(4.0), Some("t4")).unwrap(),
            ),
        ];
        let current = join_current(&[], runs).unwrap();
        let keys: Vec<&str> = current.iter().map(|m| m.key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "table2/ds/m/self_relative_speedup",
                "serving/t1/assign_points_per_sec",
                "serving/t4/assign_points_per_sec",
            ]
        );
        assert_eq!(current[2].value, 4.0);
    }

    /// A `loadgen` report in the shape the binary writes: its own fields
    /// plus the unlabeled `serving/...` metrics list.
    fn loadgen_doc(assign_pps: f64, rps: f64, p50: f64, p99: f64) -> Value {
        json!({
            "requests_per_sec": rps,
            "assign_points_per_sec": assign_pps,
            "latency_p50_ms": p50,
            "latency_p90_ms": (p50 + p99) / 2.0,
            "latency_p99_ms": p99,
            "metrics": metrics_json(&[
                Metric::gated("serving/assign_points_per_sec", assign_pps, "points/s"),
                Metric::info("serving/requests_per_sec", rps, "requests/s"),
                Metric::info("serving/latency_p50_ms", p50, "ms"),
                Metric::info("serving/latency_p99_ms", p99, "ms"),
            ]),
        })
    }

    #[test]
    fn extracts_loadgen_metrics_with_gating_split() {
        let ms = read_metrics(&loadgen_doc(200_000.0, 10_000.0, 1.2, 8.0), Some("t4")).unwrap();
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
        // Halving both: only the gated assign throughput fails the gate.
        let half = read_metrics(&loadgen_doc(100_000.0, 5_000.0, 1.2, 8.0), Some("t4")).unwrap();
        let out = compare(&ms, &half, DEFAULT_TOLERANCE);
        assert_eq!(out.failures, 1);
        let failed: Vec<&str> = out
            .comparisons
            .iter()
            .filter(|c| c.regressed)
            .map(|c| c.key.as_str())
            .collect();
        assert_eq!(failed, ["serving/t4/assign_points_per_sec"]);
    }

    #[test]
    fn loadgen_latency_quantiles_are_tracked_but_ungated() {
        let ms = read_metrics(&loadgen_doc(200_000.0, 10_000.0, 1.2, 8.0), Some("t4")).unwrap();
        for key in ["serving/t4/latency_p50_ms", "serving/t4/latency_p99_ms"] {
            let m = ms.iter().find(|m| m.key == key).unwrap();
            assert!(!m.gated, "{key} must never gate");
            assert_eq!(m.unit, "ms", "{key}");
        }
        // p90 is report-only: present in loadgen output, not a baseline
        // metric (keeps the committed baseline schema minimal).
        assert!(!ms.iter().any(|m| m.key.contains("p90")));
        // A one-bucket jitter in the quantiles never fails the gate.
        let jitter = read_metrics(&loadgen_doc(200_000.0, 10_000.0, 0.6, 4.0), Some("t4")).unwrap();
        assert!(compare(&ms, &jitter, DEFAULT_TOLERANCE).passed());
        // Lists without quantiles still parse.
        let old = json!({"metrics": metrics_json(&[
            Metric::info("serving/requests_per_sec", 5_000.0, "requests/s"),
        ])});
        assert_eq!(read_metrics(&old, Some("t1")).unwrap().len(), 1);
    }

    #[test]
    fn kernel_metrics_are_gated_speedups() {
        use crate::kernels::{kernels_json, KernelTimes};
        let times = |lane_secs, scalar_secs| KernelTimes {
            lane_secs,
            scalar_secs,
        };
        let doc = kernels_json(&[
            ("bccp_pair_loop", times(0.01, 0.02)),
            ("knn_batch", times(0.01, 0.015)),
        ]);
        let ms = read_metrics(&reparse(&doc), None).unwrap();
        assert_eq!(ms.len(), 2);
        assert!(ms.iter().all(|m| m.gated));
        assert!(ms
            .iter()
            .any(|m| m.key == "kernels/bccp_pair_loop/speedup_vs_scalar" && m.value == 2.0));
        // A baseline written from the kernel metrics round-trips through
        // the reader.
        let baseline = reparse(&baseline_json("x", &ms));
        assert_eq!(read_metrics(&baseline, None).unwrap(), ms);
    }

    #[test]
    fn non_finite_values_are_rejected() {
        // NaN and ±inf are written as `null`; both the written and the
        // in-memory form must fail, naming the key.
        let doc = json!({"metrics": metrics_json(&[
            Metric::gated("ok", 1.0, "ratio"),
            Metric::gated("kernels/x/speedup_vs_scalar", f64::INFINITY, "ratio"),
        ])});
        for doc in [doc.clone(), reparse(&doc)] {
            let err = read_metrics(&doc, None).unwrap_err();
            assert!(err.contains("kernels/x/speedup_vs_scalar"), "{err}");
            assert!(err.contains("not a finite number"), "{err}");
        }
        // Malformed lists fail too, rather than skipping entries.
        assert!(read_metrics(&json!({"rows": Value::Array(Vec::new())}), None).is_err());
        for entry in [
            json!({"value": 1.0, "unit": "s", "gated": true}),
            json!({"key": "k", "value": "fast", "unit": "s", "gated": true}),
            json!({"key": "k", "value": 1.0, "gated": true}),
            json!({"key": "k", "value": 1.0, "unit": "s"}),
        ] {
            let doc = json!({"metrics": Value::Array(vec![entry.clone()])});
            assert!(read_metrics(&doc, None).is_err(), "{entry}");
        }
    }

    #[test]
    fn keys_repeated_across_files_are_rejected() {
        let run = || {
            vec![Metric::gated(
                "serving/t4/assign_points_per_sec",
                1.0,
                "points/s",
            )]
        };
        let err = join_current(
            &[],
            vec![("a.json".into(), run()), ("b.json".into(), run())],
        )
        .unwrap_err();
        assert!(err.starts_with("b.json:"), "{err}");
        assert!(err.contains("serving/t4/assign_points_per_sec"), "{err}");
        // Within one list, a repeat is a malformed list.
        let doc = json!({"metrics": metrics_json(&[run()[0].clone(), run()[0].clone()])});
        assert!(read_metrics(&doc, None)
            .unwrap_err()
            .contains("listed twice"));
    }

    #[test]
    fn unit_mismatch_with_baseline_is_rejected() {
        let baseline = vec![Metric::gated("dynamic/insert_pts_per_s", 100.0, "points/s")];
        let run = vec![Metric::gated("dynamic/insert_pts_per_s", 0.1, "points/ms")];
        let err = join_current(&baseline, vec![("dynamic.json".into(), run)]).unwrap_err();
        assert!(err.starts_with("dynamic.json:"), "{err}");
        assert!(err.contains("dynamic/insert_pts_per_s"), "{err}");
        // Keys the baseline does not know are free to pick their unit.
        let new = vec![Metric::gated("dynamic/other", 1.0, "s")];
        assert!(join_current(&baseline, vec![("dynamic.json".into(), new)]).is_ok());
    }

    #[test]
    fn kernel_floor_parse_and_evaluate() {
        let key = "kernels/bccp_pair_loop/speedup_vs_scalar";
        let floor = Require::parse(&format!("{key}>=1.3")).unwrap();
        assert_eq!(
            floor,
            Require {
                key: key.into(),
                min: 1.3,
                of: None
            }
        );
        assert_eq!(floor.to_string(), format!("{key}>=1.3"));
        for bad in [
            key,
            "k>=notafloat",
            "k>=-2",
            "k>=0",
            ">=1.3",
            "k>=inf",
            "k>=1.3*",
        ] {
            assert!(Require::parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(floor.evaluate(&[m(key, 1.8, true)]).unwrap(), 1.8);
        assert!(
            floor.evaluate(&[m(key, 1.1, true)]).is_err(),
            "1.1x < 1.3x floor"
        );
        // A missing metric fails loudly instead of passing vacuously.
        let err = floor.evaluate(&[]).unwrap_err();
        assert!(err.contains(key), "{err}");
    }

    #[test]
    fn ratio_check_parse_and_evaluate() {
        let bin = "serving/t4bin/assign_points_per_sec";
        let json = "serving/t4json/assign_points_per_sec";
        let rc = Require::parse(&format!("{bin}>=1.5*{json}")).unwrap();
        assert_eq!(
            rc,
            Require {
                key: bin.into(),
                min: 1.5,
                of: Some(json.into())
            }
        );
        assert_eq!(rc.to_string(), format!("{bin}>=1.5*{json}"));
        for bad in ["a>=x*b", "a>=-1*b", "a=1.5*b", "a>=1.5*"] {
            assert!(Require::parse(bad).is_err(), "{bad:?}");
        }
        let metrics = |b: f64, j: f64| vec![m(bin, b, true), m(json, j, true)];
        assert_eq!(rc.evaluate(&metrics(300.0, 100.0)).unwrap(), 3.0);
        assert!(rc.evaluate(&metrics(140.0, 100.0)).is_err(), "1.4x < 1.5x");
        assert!(
            rc.evaluate(&metrics(140.0, 0.0)).is_err(),
            "ratio undefined"
        );
        // Missing metrics on either side fail loudly.
        assert!(rc.evaluate(&[m(json, 100.0, true)]).is_err());
        assert!(rc.evaluate(&[m(bin, 100.0, true)]).is_err());
    }
}
