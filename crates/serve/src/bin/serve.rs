//! CLI for the serving stack: build a model artifact, serve one or many
//! over HTTP, or query an artifact locally.
//!
//! ```sh
//! serve build --gen varden --dims 2 --n 20000 --out model.pcsm
//! serve build --csv points.csv --dims 3 --minpts 10 --out model.pcsm
//! serve build --points-file points.pcls --out model.pcsm
//! serve gen-points --gen uniform --dims 3 --n 1000000 --out points.pcls
//! serve serve --model model.pcsm --addr 127.0.0.1:8077 --workers 4 --threads 4
//! serve serve --models-dir artifacts/ --default geo
//! serve serve --manifest models.json
//! serve query --model model.pcsm --eps 2.5
//! serve query --model model.pcsm --eom-eps 1.0
//! ```
//!
//! Each subcommand accepts only its own flags: an unknown flag (a typo
//! such as `--minpt`, or a removed one) exits 2 naming it.

use parclust_serve::{
    with_model_dims, ClusterModel, LabelingSpec, ModelRegistry, QueryEngine, ServerConfig,
};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:\n  serve build (--csv PATH | --points-file PATH.pcls | \
         --gen uniform|varden|gps|sensor) --dims D \
         [--n N] [--seed S] [--minpts M] [--min-cluster-size C] --out PATH\n  \
         serve gen-points --gen uniform|varden|gps|sensor --dims D --n N [--seed S] \
         [--chunk-len C] --out PATH.pcls\n  \
         serve serve (--model PATH [--id NAME])... [--models-dir DIR] \
         [--manifest PATH] [--default ID] [--addr HOST:PORT] [--workers W] [--threads T]\n  \
         serve query --model PATH (--eps F | --k N | --eom-eps F) [--labels]"
    );
    std::process::exit(2);
}

/// Runtime failure (IO, bad data, bind, ...): diagnostic on stderr, exit 1.
/// Malformed command lines go through `bad_arg`/`usage` (exit 2) instead.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("serve: error: {msg}");
    std::process::exit(1);
}

/// Print a line to stdout. A reader that hung up (`serve query | head`)
/// ends the run quietly with exit 0; any other write error exits 1.
fn say(text: impl std::fmt::Display) {
    use std::io::Write;
    if let Err(e) = writeln!(std::io::stdout().lock(), "{text}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        fail(format_args!("stdout: {e}"));
    }
}

/// Command-line value we could not make sense of: diagnostic, exit 2.
fn bad_arg(msg: impl std::fmt::Display) -> ! {
    eprintln!("serve: error: {msg}");
    std::process::exit(2);
}

/// Parse a flag's value (or its default), exiting 2 with the offending
/// input on failure instead of panicking.
fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: &str) -> T {
    let raw = flag(args, name).unwrap_or_else(|| default.into());
    raw.parse()
        .unwrap_or_else(|_| bad_arg(format_args!("invalid value {raw:?} for {name}")))
}

/// [`parse_flag`] for a count the library requires to be at least `min`,
/// checked here so a bad value exits 2 instead of panicking mid-build.
fn parse_at_least(args: &[String], name: &str, default: &str, min: usize) -> usize {
    let v: usize = parse_flag(args, name, default);
    if v < min {
        bad_arg(format_args!("{name} must be at least {min} (got {v})"));
    }
    v
}

/// Reject any argument of subcommand `cmd` that is not one of its `valued`
/// flags (each followed by a value) or `switches` (boolean flags), so a
/// typo never silently falls back to a default.
fn check_flags(args: &[String], cmd: &str, valued: &[&str], switches: &[&str]) {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if valued.contains(&a) {
            i += 2;
        } else if switches.contains(&a) {
            i += 1;
        } else {
            bad_arg(format_args!("unknown flag {a:?} for `serve {cmd}`"));
        }
    }
}

/// Reject dimensionalities `with_model_dims!` cannot monomorphize, before
/// the macro's library-level panic can fire.
fn check_dims(dims: usize) -> usize {
    if !matches!(dims, 2 | 3 | 5 | 7 | 10 | 16) {
        bad_arg(format_args!(
            "unsupported dimensionality {dims} (supported: 2,3,5,7,10,16)"
        ));
    }
    dims
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    match cmd.as_str() {
        "build" => build(rest),
        "gen-points" => gen_points(rest),
        "serve" => serve(rest),
        "query" => query(rest),
        _ => usage(),
    }
}

/// Generator dispatch shared by `build` and `gen-points`.
fn generate<const D: usize>(gen: &str, n: usize, seed: u64) -> Vec<parclust::Point<D>> {
    match gen {
        "uniform" => parclust_data::uniform_fill::<D>(n, seed),
        "varden" => parclust_data::seed_spreader::<D>(n, seed),
        "sensor" => parclust_data::sensor_like::<D>(n, seed, 8),
        "gps" => {
            // gps_like returns Point<3>; the check keeps the coordinate
            // copy below exact for the one legal dims.
            if D != 3 {
                bad_arg(format_args!("--gen gps is 3-dimensional (got --dims {D})"));
            }
            let pts3 = parclust_data::gps_like(n, seed);
            let mut out = Vec::with_capacity(pts3.len());
            for p in pts3 {
                let mut c = [0.0; D];
                for (slot, &v) in c.iter_mut().zip(p.coords().iter()) {
                    *slot = v;
                }
                out.push(parclust::Point(c));
            }
            out
        }
        other => bad_arg(format_args!(
            "unknown generator {other:?} (use uniform, varden, gps, sensor)"
        )),
    }
}

/// Generate a synthetic dataset straight into the chunked `.pcls` format —
/// the feedstock for `build --points-file` (and for CI's streamed-build
/// smoke leg).
fn gen_points(args: &[String]) {
    check_flags(
        args,
        "gen-points",
        &["--gen", "--dims", "--n", "--seed", "--chunk-len", "--out"],
        &[],
    );
    let out = flag(args, "--out").unwrap_or_else(|| usage());
    let dims: usize = check_dims(parse_flag(args, "--dims", "2"));
    let n: usize = parse_flag(args, "--n", "10000");
    let seed: u64 = parse_flag(args, "--seed", "42");
    let chunk_len: usize = match flag(args, "--chunk-len") {
        Some(_) => parse_flag(args, "--chunk-len", "0"),
        None => parclust_data::DEFAULT_CHUNK_LEN,
    };
    with_model_dims!(dims, |D| {
        let points: Vec<parclust::Point<D>> =
            generate(flag(args, "--gen").as_deref().unwrap_or("uniform"), n, seed);
        parclust_data::write_chunked(std::path::Path::new(&out), &points, chunk_len)
            .unwrap_or_else(|e| fail(format_args!("write {out}: {e}")));
        let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
        say(format_args!(
            "wrote {out} ({} points, {}D, {bytes} bytes)",
            points.len(),
            D
        ));
    });
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag_all(args: &[String], name: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn build(args: &[String]) {
    check_flags(
        args,
        "build",
        &[
            "--csv",
            "--points-file",
            "--gen",
            "--dims",
            "--n",
            "--seed",
            "--minpts",
            "--min-cluster-size",
            "--out",
        ],
        &[],
    );
    let out = flag(args, "--out").unwrap_or_else(|| usage());
    let min_pts = parse_at_least(args, "--minpts", "10", 1);
    let min_cluster_size = parse_at_least(args, "--min-cluster-size", "10", 2);
    let n: usize = parse_flag(args, "--n", "10000");
    let seed: u64 = parse_flag(args, "--seed", "42");
    let csv = flag(args, "--csv");
    let points_file = flag(args, "--points-file");
    // A .pcls file fixes its own dimensionality; otherwise --dims decides.
    let dims: usize = check_dims(match &points_file {
        Some(path) => {
            parclust_data::chunked_header(std::path::Path::new(path))
                .unwrap_or_else(|e| fail(format_args!("read {path}: {e}")))
                .dims as usize
        }
        None => parse_flag(args, "--dims", "2"),
    });
    with_model_dims!(dims, |D| {
        let t0 = std::time::Instant::now();
        let (points, source): (Vec<parclust::Point<D>>, &str) = match (&points_file, &csv) {
            (Some(path), _) => (
                parclust_data::read_chunked(std::path::Path::new(path))
                    .unwrap_or_else(|e| fail(format_args!("read {path}: {e}"))),
                path,
            ),
            (None, Some(path)) => (
                parclust_data::read_csv(std::path::Path::new(path))
                    .unwrap_or_else(|e| fail(format_args!("read {path}: {e}"))),
                path,
            ),
            (None, None) => (
                generate(flag(args, "--gen").as_deref().unwrap_or("varden"), n, seed),
                "generator",
            ),
        };
        if points.is_empty() {
            fail(format_args!("{source} holds no points"));
        }
        eprintln!(
            "building model from {source}: {} points, {}D, minPts={min_pts}, \
             minClusterSize={min_cluster_size}",
            points.len(),
            D
        );
        let model = ClusterModel::build(&points, min_pts, min_cluster_size);
        eprintln!("built in {:.2}s", t0.elapsed().as_secs_f64());
        model
            .save(std::path::Path::new(&out))
            .unwrap_or_else(|e| fail(format_args!("save {out}: {e}")));
        let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
        say(format_args!(
            "wrote {out} ({bytes} bytes, {} condensed clusters)",
            model.condensed.num_clusters()
        ));
    });
}

/// Model id for a bare `--model PATH`: the file stem.
fn id_from_path(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("default")
        .to_string()
}

fn serve(args: &[String]) {
    check_flags(
        args,
        "serve",
        &[
            "--model",
            "--id",
            "--models-dir",
            "--manifest",
            "--default",
            "--addr",
            "--workers",
            "--threads",
        ],
        &[],
    );
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:8077".into());
    let workers: usize = parse_flag(args, "--workers", "4");
    let pool_threads: usize = parse_flag(args, "--threads", "0");

    let registry = Arc::new(ModelRegistry::new());
    let models = flag_all(args, "--model");
    let ids = flag_all(args, "--id");
    if !ids.is_empty() && ids.len() != models.len() {
        eprintln!("--id must be given once per --model (or not at all)");
        usage();
    }
    for (i, path) in models.iter().enumerate() {
        let id = ids.get(i).cloned().unwrap_or_else(|| id_from_path(path));
        registry
            .load_path(&id, std::path::Path::new(path))
            .unwrap_or_else(|e| fail(format_args!("load {path}: {e}")));
        eprintln!("loaded {path} as {id:?}");
    }
    if let Some(dir) = flag(args, "--models-dir") {
        let ids = registry
            .load_dir(std::path::Path::new(&dir))
            .unwrap_or_else(|e| fail(format_args!("scan {dir}: {e}")));
        eprintln!("loaded {} model(s) from {dir}: {ids:?}", ids.len());
    }
    if let Some(manifest) = flag(args, "--manifest") {
        let ids = registry
            .load_manifest(std::path::Path::new(&manifest))
            .unwrap_or_else(|e| fail(format_args!("manifest {manifest}: {e}")));
        eprintln!(
            "loaded {} model(s) from manifest {manifest}: {ids:?}",
            ids.len()
        );
    }
    if let Some(default) = flag(args, "--default") {
        registry
            .set_default(&default)
            .unwrap_or_else(|e| fail(format_args!("--default: {e}")));
    }
    let snapshot = registry.snapshot();
    if snapshot.models.is_empty() {
        eprintln!("no models loaded (pass --model / --models-dir / --manifest)");
        usage();
    }
    for (id, h) in &snapshot.models {
        eprintln!("  {id}: {} points, {}D", h.num_points(), h.dims());
    }
    eprintln!(
        "default model: {}",
        snapshot.default_id.as_deref().unwrap_or("(none)")
    );
    let server = parclust_serve::start(
        registry,
        &ServerConfig {
            addr,
            workers,
            pool_threads,
        },
    )
    .unwrap_or_else(|e| fail(format_args!("bind: {e}")));
    // Parseable by scripts (CI greps for this line to learn the port).
    println!("listening on {}", server.addr());
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn query(args: &[String]) {
    check_flags(
        args,
        "query",
        &["--model", "--eps", "--k", "--eom-eps"],
        &["--labels"],
    );
    let model_path = flag(args, "--model").unwrap_or_else(|| usage());
    let spec = if flag(args, "--eps").is_some() {
        LabelingSpec::Cut {
            eps: parse_flag(args, "--eps", "0"),
        }
    } else if flag(args, "--k").is_some() {
        LabelingSpec::CutK {
            k: parse_flag(args, "--k", "0"),
        }
    } else if flag(args, "--eom-eps").is_some() {
        LabelingSpec::Eom {
            cluster_selection_epsilon: parse_flag(args, "--eom-eps", "0"),
        }
    } else {
        LabelingSpec::Eom {
            cluster_selection_epsilon: 0.0,
        }
    };
    let dims = check_dims(
        parclust_serve::peek_dims(std::path::Path::new(&model_path))
            .unwrap_or_else(|e| fail(format_args!("read {model_path}: {e}"))),
    );
    with_model_dims!(dims, |D| {
        let model = ClusterModel::<D>::load(std::path::Path::new(&model_path))
            .unwrap_or_else(|e| fail(format_args!("load {model_path}: {e}")));
        let engine = QueryEngine::new(Arc::new(model));
        let labeling = engine.labeling(spec);
        say(serde_json::json!({
            "spec": format!("{spec:?}"),
            "num_clusters": labeling.num_clusters as u64,
            "noise": labeling.num_noise as u64,
        })
        .to_json_string_pretty());
        if has_flag(args, "--labels") {
            let signed: Vec<i64> = labeling
                .labels
                .iter()
                .map(|&l| if l == parclust::NOISE { -1 } else { l as i64 })
                .collect();
            say(serde_json::to_string(&signed).unwrap());
        }
    });
}
