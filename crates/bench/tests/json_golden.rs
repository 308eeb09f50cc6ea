//! Golden strings for the `repro.json` format. The bench gate
//! (`compare_bench`) and `refresh-baseline` read these files, so a row's
//! keys, their order and the rendering of its numbers must not drift.

use parclust::Stats;
use parclust_bench::gate::Metric;
use parclust_bench::{stats_json, Report, ResultRow};
use serde_json::Value;

fn stats() -> Stats {
    Stats {
        build_tree: 0.25,
        core_dist: 0.0,
        wspd: 1.5e-5,
        kruskal: 2.0,
        dendrogram: 0.1,
        total: 12.375,
        rounds: 7,
        bccp_calls: 123_456,
        pairs_materialized: 0,
        peak_live_pairs: 9_876_543_210,
        peak_pair_bytes: 64,
        peak_frontier: 3,
    }
}

fn row(extra: Option<Value>) -> ResultRow {
    ResultRow {
        experiment: "fig8".into(),
        dataset: "2D-SS-\"varden\"".into(),
        method: "MemoGFK".into(),
        threads: 4,
        n: 10_000,
        seconds: 3.0,
        extra,
    }
}

const ROW: &str = r#"{"experiment":"fig8","dataset":"2D-SS-\"varden\"","method":"MemoGFK","threads":4,"n":10000,"seconds":3.0}"#;

const STATS: &str = r#"{"build_tree":0.25,"core_dist":0.0,"wspd":0.000015,"kruskal":2.0,"dendrogram":0.1,"total":12.375,"rounds":7,"bccp_calls":123456,"pairs_materialized":0,"peak_live_pairs":9876543210,"peak_pair_bytes":64,"peak_frontier":3}"#;

const STATS_PRETTY: &str = r#"{
  "build_tree": 0.25,
  "core_dist": 0.0,
  "wspd": 0.000015,
  "kruskal": 2.0,
  "dendrogram": 0.1,
  "total": 12.375,
  "rounds": 7,
  "bccp_calls": 123456,
  "pairs_materialized": 0,
  "peak_live_pairs": 9876543210,
  "peak_pair_bytes": 64,
  "peak_frontier": 3
}"#;

/// What `Report::write` puts in `repro.json`: a row without `extra`, a
/// fig8 row whose `extra` is its `Stats`, and the gate's metrics.
const REPORT: &str = r#"{
  "rows": [
    {
      "experiment": "fig8",
      "dataset": "2D-SS-\"varden\"",
      "method": "MemoGFK",
      "threads": 4,
      "n": 10000,
      "seconds": 3.0
    },
    {
      "experiment": "fig8",
      "dataset": "2D-SS-\"varden\"",
      "method": "MemoGFK",
      "threads": 4,
      "n": 10000,
      "seconds": 3.0,
      "extra": {
        "build_tree": 0.25,
        "core_dist": 0.0,
        "wspd": 0.000015,
        "kruskal": 2.0,
        "dendrogram": 0.1,
        "total": 12.375,
        "rounds": 7,
        "bccp_calls": 123456,
        "pairs_materialized": 0,
        "peak_live_pairs": 9876543210,
        "peak_pair_bytes": 64,
        "peak_frontier": 3
      }
    }
  ],
  "metrics": [
    {
      "key": "a/b",
      "value": 1.0,
      "unit": "s",
      "gated": true
    }
  ]
}"#;

#[test]
fn row_without_extra_omits_the_key() {
    let v = serde_json::to_value(row(None)).unwrap();
    assert_eq!(v.to_json_string(), ROW);
    assert_eq!(
        v.to_json_string_pretty(),
        r#"{
  "experiment": "fig8",
  "dataset": "2D-SS-\"varden\"",
  "method": "MemoGFK",
  "threads": 4,
  "n": 10000,
  "seconds": 3.0
}"#
    );
}

#[test]
fn row_with_extra_appends_it_last() {
    let v = serde_json::to_value(row(Some(stats_json(&stats())))).unwrap();
    let want = format!("{},\"extra\":{STATS}}}", &ROW[..ROW.len() - 1]);
    assert_eq!(v.to_json_string(), want);
}

#[test]
fn fig8_stats_object() {
    let v = stats_json(&stats());
    assert_eq!(v.to_json_string(), STATS);
    assert_eq!(v.to_json_string_pretty(), STATS_PRETTY);
}

#[test]
fn report_file() {
    let path = std::env::temp_dir().join(format!("json_golden_{}.json", std::process::id()));
    let report = Report {
        rows: vec![row(None), row(Some(stats_json(&stats())))],
        metrics: vec![Metric::gated("a/b", 1.0, "s")],
    };
    report.write(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(text, REPORT);
}
