//! Load generator for the `serve` HTTP server: drives a configurable mix
//! of flat-cut, EOM, and out-of-sample-assignment requests over keep-alive
//! connections and reports throughput/latency as JSON (the serving
//! counterpart of the repro harness's bench reports).
//!
//! `--binary` switches the assignment traffic to the checksummed binary
//! batch protocol (`/assign_binary`); `--model ID` targets one model of a
//! multi-model server instead of the default-model routes.
//!
//! ```sh
//! loadgen --addr 127.0.0.1:8077 --connections 4 --requests 2000 \
//!         --batch 64 --mix cut,eom,assign --out bench_results/serving.json
//! loadgen --addr 127.0.0.1:8077 --model geo --binary --mix assign --batch 512
//! ```
//!
//! The report's `metrics` list feeds the bench gate. Its keys carry no
//! serving label: `compare_bench --current t4=serving_t4.json` turns
//! `serving/assign_points_per_sec` (gated) into
//! `serving/t4/assign_points_per_sec`. Request rate and latency quantiles
//! are listed ungated.
//!
//! Usage errors exit 2 and runtime failures (connect, a malformed server
//! response, IO) exit 1, each with one `loadgen: error:` line on stderr;
//! a closed stdout ends the run quietly.

use parclust_bench::cli::Cli;
use parclust_bench::gate::{metrics_json, Metric};
use parclust_obs::Histogram;
use parclust_serve::{AssignRequest, AssignResponse, LabelingSpec};
use rand::prelude::*;
use serde_json::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

const CLI: Cli = Cli("loadgen");

const USAGE: &str = "usage: loadgen --addr HOST:PORT [--connections C] [--requests N] \
                     [--batch B] [--mix cut,eom,assign] [--model ID] [--binary] \
                     [--seed S] [--out PATH]";

#[derive(Clone)]
struct Opts {
    addr: String,
    connections: usize,
    requests: usize,
    batch: usize,
    mix: Vec<String>,
    out: Option<std::path::PathBuf>,
    seed: u64,
    /// Model id to route at (`/models/{id}/...`); None = legacy default
    /// routes.
    model: Option<String>,
    /// Assignment over the binary protocol instead of JSON.
    binary: bool,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        addr: "127.0.0.1:8077".into(),
        connections: 4,
        requests: 1000,
        batch: 64,
        mix: Vec::new(),
        out: None,
        seed: 42,
        model: None,
        binary: false,
    };
    let mut mix = "cut,eom,assign".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let flag = a.as_str();
        match flag {
            "--addr" => opts.addr = CLI.value(&mut args, flag),
            "--connections" => opts.connections = CLI.parse(&mut args, flag),
            "--requests" => opts.requests = CLI.parse(&mut args, flag),
            "--batch" => opts.batch = CLI.parse(&mut args, flag),
            "--mix" => mix = CLI.value(&mut args, flag),
            "--out" => opts.out = Some(CLI.value(&mut args, flag).into()),
            "--seed" => opts.seed = CLI.parse(&mut args, flag),
            "--model" => opts.model = Some(CLI.value(&mut args, flag)),
            "--binary" => opts.binary = true,
            "--help" | "-h" => {
                CLI.say(USAGE);
                std::process::exit(0);
            }
            other => CLI.bad_arg(format_args!("unknown argument {other:?} (see --help)")),
        }
    }
    opts.mix = mix
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    // Reject bad mixes here, before any connection is opened, so the error
    // surfaces once on the main thread instead of panicking a worker.
    for kind in &opts.mix {
        if !matches!(kind.as_str(), "cut" | "eom" | "assign") {
            CLI.bad_arg(format_args!(
                "unknown mix kind {kind:?} (use cut,eom,assign)"
            ));
        }
    }
    if opts.mix.is_empty() {
        CLI.bad_arg("--mix must name at least one of cut,eom,assign");
    }
    opts
}

/// Per-kind latency collection (nanoseconds).
#[derive(Default)]
struct KindStats {
    latencies_ns: Vec<u64>,
}

impl KindStats {
    fn summarize(&mut self) -> Value {
        self.latencies_ns.sort_unstable();
        let n = self.latencies_ns.len();
        if n == 0 {
            return serde_json::json!({"count": 0u64});
        }
        let total: u64 = self.latencies_ns.iter().sum();
        let pct = |p: f64| self.latencies_ns[((n as f64 * p) as usize).min(n - 1)] as f64 / 1e6;
        serde_json::json!({
            "count": n as u64,
            "mean_ms": total as f64 / n as f64 / 1e6,
            "p50_ms": pct(0.50),
            "p95_ms": pct(0.95),
            "max_ms": *self.latencies_ns.last().unwrap() as f64 / 1e6,
        })
    }
}

/// Route prefix for query paths: `/models/{id}` or "" (default model).
fn prefix(model: &Option<String>) -> String {
    match model {
        Some(id) => format!("/models/{id}"),
        None => String::new(),
    }
}

fn main() {
    let opts = parse_opts();
    // One probe connection learns the model shape (dims + bbox + id) so
    // assign queries sample the data's own bounding box and binary frames
    // carry the right model id.
    let mut probe = parclust_serve::Client::connect(&opts.addr)
        .unwrap_or_else(|e| CLI.fail(format_args!("connect {}: {e}", opts.addr)));
    let info_path = match &opts.model {
        Some(id) => format!("/models/{id}"),
        None => "/model".to_string(),
    };
    let (status, model) = probe
        .get(&info_path)
        .unwrap_or_else(|e| CLI.fail(format_args!("GET {info_path}: {e}")));
    if status != 200 {
        CLI.fail(format_args!("GET {info_path} failed ({status}): {model}"));
    }
    // The id binary frames must carry: the routed id, or the server's
    // default when running against the legacy routes.
    let model_id = match &opts.model {
        Some(id) => id.clone(),
        None => {
            let (status, index) = probe
                .get("/models")
                .unwrap_or_else(|e| CLI.fail(format_args!("GET /models: {e}")));
            if status != 200 {
                CLI.fail(format_args!("GET /models failed ({status}): {index}"));
            }
            index
                .get("default")
                .and_then(Value::as_str)
                .unwrap_or_else(|| CLI.fail("server reports no default model (pass --model ID)"))
                .to_string()
        }
    };
    let dims = model
        .get("dims")
        .and_then(Value::as_u64)
        .unwrap_or_else(|| CLI.fail(format_args!("malformed model info (no dims): {model}")))
        as usize;
    let n_points = model.get("n").and_then(Value::as_u64).unwrap_or(0);
    let bbox_axis = |key: &str| -> Vec<f64> {
        model
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| CLI.fail(format_args!("malformed model info (no {key}): {model}")))
            .iter()
            .map(|v| {
                v.as_f64().unwrap_or_else(|| {
                    CLI.fail(format_args!("malformed model info ({key}): {model}"))
                })
            })
            .collect()
    };
    let lo: Vec<f64> = bbox_axis("bbox_lo");
    let hi: Vec<f64> = bbox_axis("bbox_hi");
    let diag: f64 = lo
        .iter()
        .zip(&hi)
        .map(|(a, b)| (b - a) * (b - a))
        .sum::<f64>()
        .sqrt()
        .max(1e-9);
    drop(probe);
    eprintln!(
        "loadgen: {} requests over {} connections against {} ({n_points} points, {dims}D, \
         assign protocol: {})",
        opts.requests,
        opts.connections,
        opts.addr,
        if opts.binary { "binary" } else { "json" },
    );

    let next = Arc::new(AtomicUsize::new(0));
    // One lock-free histogram shared by every worker: the same collector
    // the server's /metrics endpoint uses, so the client-side percentiles
    // reported here are directly comparable to a concurrent scrape.
    let hist = Arc::new(Histogram::latency_default());
    let t0 = Instant::now();
    let handles: Vec<_> = (0..opts.connections)
        .map(|c| {
            let opts = opts.clone();
            let next = Arc::clone(&next);
            let hist = Arc::clone(&hist);
            let (lo, hi) = (lo.clone(), hi.clone());
            let model_id = model_id.clone();
            std::thread::spawn(move || {
                let mut client = parclust_serve::Client::connect(&opts.addr)
                    .unwrap_or_else(|e| CLI.fail(format_args!("connect {}: {e}", opts.addr)));
                let mut rng = StdRng::seed_from_u64(opts.seed ^ (c as u64) << 32);
                let mut stats: Vec<(String, KindStats)> = opts
                    .mix
                    .iter()
                    .map(|k| (k.clone(), KindStats::default()))
                    .collect();
                let route = prefix(&opts.model);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= opts.requests {
                        break;
                    }
                    let kind = &opts.mix[i % opts.mix.len()];
                    let ns = match kind.as_str() {
                        // Eight distinct eps levels: the first hit of each
                        // computes, later hits measure cache + transport.
                        "cut" => {
                            let body = serde_json::json!({
                                "eps": diag * 0.002 * (1 + i % 8) as f64,
                                "include_labels": false,
                            });
                            timed_json(&mut client, &format!("{route}/cut"), &body)
                        }
                        "eom" => {
                            let body = serde_json::json!({
                                "cluster_selection_epsilon": diag * 0.004 * (i % 4) as f64,
                                "include_labels": false,
                            });
                            timed_json(&mut client, &format!("{route}/eom"), &body)
                        }
                        "assign" if opts.binary => {
                            let coords: Vec<f64> = (0..opts.batch)
                                .flat_map(|_| {
                                    (0..dims)
                                        .map(|d| rng.gen_range(lo[d]..=hi[d]))
                                        .collect::<Vec<f64>>()
                                })
                                .collect();
                            let frame = AssignRequest {
                                model_id: model_id.clone(),
                                spec: LabelingSpec::Eom {
                                    cluster_selection_epsilon: 0.0,
                                },
                                max_dist: f64::INFINITY,
                                dims: dims as u32,
                                coords,
                            }
                            .encode();
                            let q0 = Instant::now();
                            let (status, body) = client
                                .post_binary(&format!("{route}/assign_binary"), &frame)
                                .unwrap_or_else(|e| {
                                    CLI.fail(format_args!("POST {route}/assign_binary: {e}"))
                                });
                            let ns = q0.elapsed().as_nanos() as u64;
                            if status != 200 {
                                CLI.fail(format_args!(
                                    "assign_binary failed ({status}): {}",
                                    String::from_utf8_lossy(&body)
                                ));
                            }
                            let resp = AssignResponse::decode(&body).unwrap_or_else(|e| {
                                CLI.fail(format_args!("malformed assign_binary response: {e}"))
                            });
                            assert_eq!(resp.labels.len(), opts.batch);
                            ns
                        }
                        "assign" => {
                            let pts: Vec<Value> = (0..opts.batch)
                                .map(|_| {
                                    Value::Array(
                                        (0..dims)
                                            .map(|d| Value::Float(rng.gen_range(lo[d]..=hi[d])))
                                            .collect(),
                                    )
                                })
                                .collect();
                            let body = serde_json::json!({"points": Value::Array(pts)});
                            timed_json(&mut client, &format!("{route}/assign"), &body)
                        }
                        // Unreachable: parse_opts rejects unknown kinds
                        // before any worker starts.
                        other => CLI.bad_arg(format_args!(
                            "unknown mix kind {other:?} (use cut,eom,assign)"
                        )),
                    };
                    hist.record_ns(ns);
                    stats
                        .iter_mut()
                        .find(|(k, _)| k == kind)
                        .unwrap()
                        .1
                        .latencies_ns
                        .push(ns);
                }
                stats
            })
        })
        .collect();

    let mut merged: Vec<(String, KindStats)> = opts
        .mix
        .iter()
        .map(|k| (k.clone(), KindStats::default()))
        .collect();
    for h in handles {
        let worker = h
            .join()
            .unwrap_or_else(|_| CLI.fail("worker thread panicked (see message above)"));
        for (kind, s) in worker {
            merged
                .iter_mut()
                .find(|(k, _)| *k == kind)
                .unwrap()
                .1
                .latencies_ns
                .extend(s.latencies_ns);
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let text =
        report(&opts, &model_id, n_points, dims, wall, &mut merged, &hist).to_json_string_pretty();
    // Write the file before printing: a reader that hangs up on stdout
    // ends the run, and the report must survive it.
    if let Some(out) = &opts.out {
        CLI.write_file(out, &text);
        eprintln!("loadgen: wrote {}", out.display());
    }
    CLI.say(text);
}

/// The run's JSON report, with the bench gate's `metrics` list.
fn report(
    opts: &Opts,
    model_id: &str,
    n_points: u64,
    dims: usize,
    wall: f64,
    merged: &mut [(String, KindStats)],
    hist: &Histogram,
) -> Value {
    let total: usize = merged.iter().map(|(_, s)| s.latencies_ns.len()).sum();
    let rps = total as f64 / wall;
    let assign_requests = merged
        .iter()
        .find(|(k, _)| k == "assign")
        .map(|(_, s)| s.latencies_ns.len())
        .unwrap_or(0);
    let assign_pps = assign_requests as f64 * opts.batch as f64 / wall;
    // All-kind latency quantiles from the shared histogram: conservative
    // bucket upper bounds, same collector as /metrics.
    let [p50, p90, p99] = [0.50, 0.90, 0.99].map(|q| hist.quantile_ms(q));
    // Assign throughput gates. The request rate is latency-bound and
    // noisier, and the quantiles are bucket upper bounds of a log-spaced
    // histogram (a one-bucket jitter reads as a 2x "regression"), so both
    // are reported only; p90 stays out of the list.
    let metrics = [
        Metric::gated("serving/assign_points_per_sec", assign_pps, "points/s"),
        Metric::info("serving/requests_per_sec", rps, "requests/s"),
        Metric::info("serving/latency_p50_ms", p50, "ms"),
        Metric::info("serving/latency_p99_ms", p99, "ms"),
    ];
    let kind_objects: Vec<(String, Value)> = merged
        .iter_mut()
        .map(|(k, s)| (k.clone(), s.summarize()))
        .collect();
    serde_json::json!({
        "experiment": "serving-throughput",
        "addr": opts.addr,
        "model": model_id,
        "model_points": n_points,
        "dims": dims as u64,
        "assign_protocol": if opts.binary { "binary" } else { "json" },
        "connections": opts.connections as u64,
        "requests": total as u64,
        "batch": opts.batch as u64,
        "wall_secs": wall,
        "requests_per_sec": rps,
        "assign_points_per_sec": assign_pps,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "latency_p99_ms": p99,
        "kinds": Value::Object(kind_objects),
        "metrics": metrics_json(&metrics),
    })
}

/// POST a JSON body and return the elapsed nanoseconds (asserting 200).
fn timed_json(client: &mut parclust_serve::Client, path: &str, body: &Value) -> u64 {
    let q0 = Instant::now();
    let (status, resp) = client
        .post(path, body)
        .unwrap_or_else(|e| CLI.fail(format_args!("POST {path}: {e}")));
    let ns = q0.elapsed().as_nanos() as u64;
    if status != 200 {
        CLI.fail(format_args!("POST {path} failed ({status}): {resp}"));
    }
    ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use parclust_bench::gate::read_metrics;

    #[test]
    fn metrics_gate_assign_throughput_only() {
        let opts = Opts {
            addr: "127.0.0.1:1".into(),
            connections: 1,
            requests: 4,
            batch: 64,
            mix: vec!["cut".into(), "assign".into()],
            out: None,
            seed: 1,
            model: None,
            binary: false,
        };
        let hist = Histogram::latency_default();
        let mut merged: Vec<(String, KindStats)> = ["cut", "assign"]
            .iter()
            .map(|k| (k.to_string(), KindStats::default()))
            .collect();
        for (i, ns) in [300_000u64, 1_000_000, 2_000_000, 4_000_000]
            .iter()
            .enumerate()
        {
            hist.record_ns(*ns);
            merged[i % 2].1.latencies_ns.push(*ns);
        }
        let doc = report(&opts, "alpha", 100, 2, 2.0, &mut merged, &hist);
        let metrics = read_metrics(&doc, Some("t4")).unwrap();
        let got: Vec<(&str, &str, bool)> = metrics
            .iter()
            .map(|m| (m.key.as_str(), m.unit.as_str(), m.gated))
            .collect();
        assert_eq!(
            got,
            [
                ("serving/t4/assign_points_per_sec", "points/s", true),
                ("serving/t4/requests_per_sec", "requests/s", false),
                ("serving/t4/latency_p50_ms", "ms", false),
                ("serving/t4/latency_p99_ms", "ms", false),
            ]
        );
        // The list repeats the report's own fields; p90 stays report-only.
        for m in &metrics {
            let field = m.key.rsplit('/').next().unwrap();
            let reported = doc.get(field).and_then(Value::as_f64);
            assert_eq!(reported, Some(m.value), "{}", m.key);
        }
        assert_eq!(
            metrics[0].value,
            2.0 * 64.0 / 2.0,
            "two assigns of 64 in 2 s"
        );
        assert!(doc.get("latency_p90_ms").is_some());
    }
}
