//! Peak heap of a 1-thread pass repeats: two identical small runs agree to
//! within 0.1%. This file holds one test only, because the counting
//! allocator is process-wide and a concurrently running test would add its
//! own allocations to the peak.

use parclust_perfbench::alloc::{peak_during, CountingAlloc};
use parclust_perfbench::inputs::geolife;
use parclust_perfbench::pipeline::{hdbscan_eom, pool};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn one_thread_peak_heap_repeats_within_a_tenth_of_a_percent() {
    let points = geolife(20_000, 11);
    let p1 = pool(1);
    let peak = || peak_during(|| p1.install(|| hdbscan_eom(&points))).1 as f64;
    let (a, b) = (peak(), peak());
    assert!(
        a > 1e6,
        "a 20k-point pass allocates megabytes, got {a} bytes"
    );
    assert!(
        (a - b).abs() <= 1e-3 * a,
        "peaks {a} and {b} differ by more than 0.1%"
    );
}
