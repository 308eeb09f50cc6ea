//! Library half of the benchmark: measurement helpers and the workloads.
//! `src/main.rs` is the command-line front end.

pub mod affinity;
pub mod alloc;
pub mod batch;
pub mod inputs;
pub mod pipeline;
pub mod probe;
pub mod report;
pub mod serve_assign;
pub mod serve_mutate;
pub mod serving;
pub mod spans;
pub mod stats;

use std::path::PathBuf;

pub const WORKLOADS: [&str; 3] = ["batch", "serve-assign", "serve-mutate"];

/// What one run was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Where artifacts and the Chrome trace are written.
    pub out_dir: PathBuf,
}

/// Run one workload. Without `trace` it runs the timed phase with tracing
/// off and reports the end-to-end metrics; with `trace` it runs the
/// traced pass on the workload's data and reports the per-layer metrics.
pub fn run(ctx: &Ctx, trace: bool) -> report::Report {
    let mut rep = report::Report::default();
    match (ctx.workload.as_str(), trace) {
        ("batch", false) => batch::run(ctx, &mut rep),
        ("batch", true) => {
            let inputs = batch::inputs(ctx);
            probe::run(ctx, &inputs.geolife, &inputs.household, &mut rep);
        }
        ("serve-assign", false) => serve_assign::run(ctx, &mut rep),
        ("serve-mutate", false) => serve_mutate::run(ctx, &mut rep),
        (w, true) => {
            let n = if w == "serve-assign" {
                serve_assign::N
            } else {
                serve_mutate::N
            };
            let train = inputs::geolife(n, ctx.seed);
            probe::run(ctx, &train, &train, &mut rep);
        }
        (w, _) => panic!("unknown workload {w:?}"),
    }
    rep
}
