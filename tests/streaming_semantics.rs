//! The streaming pipeline's exactness contract.
//!
//! The bounded-memory path (batched WSPD production, streaming Kruskal
//! merges) must be **bit-identical** to the in-memory path: same edges,
//! same weights-by-bits — for all three EMST methods, every batch size,
//! and every thread count — and chunked point files must read back
//! bit-losslessly. These tests pin that contract the same way
//! `tests/parallel_semantics.rs` pins thread-count determinism.

use parclust::{
    condense_tree, dendrogram_par, emst_gfk, emst_memogfk, emst_naive, emst_streaming,
    hdbscan_memogfk, Edge, Point,
};
use parclust_data::{read_chunked, seed_spreader, uniform_fill, ChunkedWriter};
use proptest::prelude::*;

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

fn edge_bits(edges: &[Edge]) -> Vec<(u64, u32, u32)> {
    edges.iter().map(|e| (e.w.to_bits(), e.u, e.v)).collect()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "parclust-stream-test-{}-{name}",
        std::process::id()
    ));
    p
}

#[test]
fn streaming_emst_identical_to_all_in_memory_methods() {
    let pts: Vec<Point<2>> = seed_spreader(3_000, 51);
    let naive = emst_naive(&pts);
    let gfk = emst_gfk(&pts);
    let memo = emst_memogfk(&pts);
    // The in-memory methods agree with each other (pinned elsewhere);
    // streaming must match all three at every batch size.
    for cap in [64usize, 1_000, 1 << 22] {
        let streamed = emst_streaming(&pts, cap);
        assert!(
            streamed.stats.peak_live_pairs <= cap as u64,
            "cap={cap}: peak {} pairs",
            streamed.stats.peak_live_pairs
        );
        for (name, want) in [("naive", &naive), ("gfk", &gfk), ("memogfk", &memo)] {
            assert_eq!(
                edge_bits(&streamed.edges),
                edge_bits(&want.edges),
                "streaming vs {name} at cap={cap}"
            );
            assert_eq!(
                streamed.total_weight.to_bits(),
                want.total_weight.to_bits(),
                "weight vs {name} at cap={cap}"
            );
        }
    }
}

#[test]
fn streaming_emst_identical_across_thread_counts() {
    let pts: Vec<Point<2>> = uniform_fill(2_500, 53);
    let cap = 512;
    let baseline = in_pool(1, || emst_streaming(&pts, cap));
    assert_eq!(baseline.edges.len(), pts.len() - 1);
    for threads in [2usize, 4, 8] {
        let run = in_pool(threads, || emst_streaming(&pts, cap));
        assert_eq!(
            edge_bits(&baseline.edges),
            edge_bits(&run.edges),
            "streaming EMST differs at {threads} threads"
        );
        assert_eq!(baseline.total_weight.to_bits(), run.total_weight.to_bits());
    }
}

#[test]
fn file_fed_pipeline_equals_generator_fed() {
    // Generator → chunked file → `read_chunked` → the model build
    // (HDBSCAN* MST → dendrogram → condensed tree) must equal running
    // directly on the generator output: ingestion is lossless (f64 bits
    // round-trip through the chunked codec).
    let pts: Vec<Point<3>> = seed_spreader(1_500, 55);
    let path = tmp("pipeline.pcls");
    {
        let mut w = ChunkedWriter::<3, _>::create(&path, 700).unwrap();
        w.push_all(&pts).unwrap();
        assert_eq!(w.finish().unwrap(), pts.len() as u64);
    }
    let from_file = read_chunked::<3>(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(from_file, pts, "chunked ingestion must be bit-lossless");

    let build = |p: &[Point<3>]| {
        let h = hdbscan_memogfk(p, 10);
        let d = dendrogram_par(p.len(), &h.edges, 0);
        let c = condense_tree(&d, 10);
        (h, d, c)
    };
    let (want, want_d, want_c) = build(&pts);
    let (got, got_d, got_c) = build(&from_file);
    assert_eq!(edge_bits(&got.edges), edge_bits(&want.edges));
    assert_eq!(got.core_distances, want.core_distances);
    assert_eq!(got_d.height, want_d.height);
    assert_eq!(got_d.parent, want_d.parent);
    assert_eq!(got_c.point_cluster, want_c.point_cluster);
}

fn small_points_2d(max_n: usize) -> impl Strategy<Value = Vec<Point<2>>> {
    prop::collection::vec((0i32..50, 0i32..50, 0u8..4), 0..max_n).prop_map(|raw| {
        raw.into_iter()
            .map(|(x, y, jitter)| {
                Point([
                    x as f64 + jitter as f64 * 0.5,
                    y as f64 - jitter as f64 * 0.25,
                ])
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chunked round-trips are bit-lossless at every (n, chunk_len)
    /// combination, including n = 0, n = 1, and n not divisible by the
    /// chunk length.
    #[test]
    fn chunked_roundtrip_any_shape(
        pts in small_points_2d(120),
        chunk_len in 1usize..40,
    ) {
        let path = tmp(&format!("prop-{}-{chunk_len}.pcls", pts.len()));
        let mut w = ChunkedWriter::<2, _>::create(&path, chunk_len).unwrap();
        w.push_all(&pts).unwrap();
        prop_assert_eq!(w.finish().unwrap(), pts.len() as u64);
        let back = read_chunked::<2>(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back, pts);
    }
}
