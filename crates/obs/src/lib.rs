//! parclust-obs: std-only observability primitives shared by the pipeline,
//! the thread-pool shim's consumers, and the serving stack.
//!
//! Four pieces, all allocation-free on their hot paths:
//!
//! * [`hist::Histogram`] — fixed-bucket, log-spaced latency histogram over
//!   integer nanoseconds. All increments are `Relaxed` on pre-sized atomic
//!   slots, so concurrent recorders never contend on a lock. The same
//!   struct backs the `/metrics` Prometheus exposition and `loadgen`'s
//!   p50/p90/p99 report.
//! * [`trace`] — a lightweight span API (`span!("wspd.batch", pairs = n)`)
//!   recording into per-thread atomic ring buffers. When tracing is
//!   disabled the entire cost of a span is a single relaxed load and
//!   branch.
//! * [`phase!`] — the phase guard (`phase!(&slot, "wspd.get_rho", beta = b)`),
//!   a span that also adds its duration to a caller-owned nanosecond
//!   slot. `parclust::Stats` is built from these slots, so its times are
//!   sums of trace spans.
//! * [`export`] — cold-path drain of the rings into Chrome-trace-format
//!   JSON (`chrome://tracing` / Perfetto `"traceEvents"` shape), used by
//!   `repro --trace out.json`.
//!
//! The crate is dependency-free (std only) so every tier — including the
//! rayon shim's *consumers* — can link it without cycles. The shim itself
//! keeps its own counters (see `rayon::ThreadPool::metrics`) for the same
//! reason.

pub mod export;
pub mod hist;
pub mod trace;

pub use export::{to_chrome_json, TraceEvent};
pub use hist::Histogram;
pub use trace::{Site, Span};
