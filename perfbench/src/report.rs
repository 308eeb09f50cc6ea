//! Metric records, the derived per-layer metrics, and the output formats:
//! a human table and the one-line JSON result.

use std::fmt::Write as _;

/// `true` when `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics of the result line, by the names `BENCHMARK.json` lists.
    pub result: Vec<Metric>,
    /// The same measurements under the workload's own names, plus tail
    /// percentiles and the like: printed, not part of the result line.
    pub detail: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, one line each.
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn result(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.result.push(metric(name, value, unit, samples));
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.detail.push(metric(name, value, unit, samples));
    }

    /// Count one operation; a failed one is recorded with its reason.
    pub fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.fail(why);
        }
    }

    /// Count one operation that failed unless `ok`.
    pub fn ensure(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.op(if ok { Ok(()) } else { Err(why()) })
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.mismatches.len() < 20 {
            self.mismatches.push(why);
        }
    }

    /// Whether every output check passed and every value is reportable.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.result.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable table: one row per metric with unit and sample
    /// count.
    pub fn table(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {title}");
        for (section, list) in [("result", &self.result), ("detail", &self.detail)] {
            for m in list.iter() {
                let _ = writeln!(
                    out,
                    "{section:<7} {:<34} {:>16.6} {:<6} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        let _ = writeln!(
            out,
            "ops attempted={} failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for m in &self.mismatches {
            let _ = writeln!(out, "MISMATCH {m}");
        }
        out
    }

    /// The single-line JSON result: `correct`, `attempted`, `failed` and
    /// the result metrics.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.result.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    assert!(valid_name(name), "invalid metric name {name:?}");
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// Shortest round-trip decimal for a finite `f64`, always valid JSON.
fn json_number(x: f64) -> String {
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// `serve.http.transport_p50_ms`: the part of an HTTP assign's median that
/// is neither the engine nor the pool hand-off — request p50 minus the p50
/// of the same `assign_batch` through a 1-thread `install`.
pub fn transport_p50_ms(assign_p50_ms: f64, install_p50_ms: f64) -> f64 {
    assign_p50_ms - install_p50_ms
}

/// `serve.insert_overhead_ms`: insert-request p50 minus the p50 of
/// `DynamicModel::apply` on the same batches — the cost of parsing,
/// journaling and republishing a snapshot.
pub fn insert_overhead_ms(insert_p50_ms: f64, apply_p50_ms: f64) -> f64 {
    insert_p50_ms - apply_p50_ms
}

/// `hdbscan.speedup_2t`: 1-thread time over 2-thread time.
pub fn speedup(one_thread: f64, two_threads: f64) -> f64 {
    one_thread / two_threads
}

/// `obs.trace_overhead_pct`: how much longer the traced pipeline's wall
/// time is than the median untraced pass of the same work, in percent.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    100.0 * (traced - untraced) / untraced
}

/// `obs.layer_coverage_pct`: the share of the traced pipeline's wall time
/// that its layer spans' self times account for, in percent.
pub fn coverage_pct(layer_sum: f64, wall: f64) -> f64 {
    100.0 * layer_sum / wall
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "setup_s",
            "wspd.bccp_calls",
            "serve.http.transport_p50_ms",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "p50%", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn reports_refuse_invalid_names() {
        Report::default().result("bad name", 1.0, "ms", 1);
    }

    #[test]
    fn derived_metrics() {
        assert!((transport_p50_ms(0.95, 0.57) - 0.38).abs() < 1e-12);
        assert!((insert_overhead_ms(700.0, 620.0) - 80.0).abs() < 1e-12);
        assert!((speedup(2.6, 2.0) - 1.3).abs() < 1e-12);
        assert!((overhead_pct(1.05, 1.0) - 5.0).abs() < 1e-9);
        assert!(overhead_pct(0.99, 1.0) < 0.0);
        assert!((coverage_pct(0.97, 1.0) - 97.0).abs() < 1e-9);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report::default();
        r.result("main_ms", 1.25, "ms", 10);
        r.result("heap_mib", 3.0, "MiB", 1);
        r.detail("hdbscan_s", 9.0, "s", 3);
        r.op(Ok(()));
        let line = r.json_line();
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|x| x.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("failed").and_then(|x| x.as_u64()), Some(0));
        let metrics = v.get("metrics").and_then(|x| x.as_object()).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["main_ms", "heap_mib"]);
        let heap = v.get("metrics").and_then(|m| m.get("heap_mib")).unwrap();
        assert_eq!(heap.get("value").and_then(|x| x.as_f64()), Some(3.0));
        assert_eq!(heap.get("unit").and_then(|x| x.as_str()), Some("MiB"));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report::default();
        r.op(Ok(()));
        r.op(Err("labels differ".into()));
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(!r.correct());
        assert!(r.table("t").contains("MISMATCH labels differ"));
    }
}
