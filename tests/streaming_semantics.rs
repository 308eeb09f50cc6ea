//! The chunked point-file ingestion contract.
//!
//! Points streamed through the chunked `PCLS` format must read back
//! bit-losslessly, at every length and chunk size, so a model built from a
//! file is **bit-identical** to one built from the points in memory. These
//! tests pin that contract the same way `tests/parallel_semantics.rs`
//! pins thread-count determinism.

use parclust::{condense_tree, dendrogram_par, hdbscan_memogfk, Edge, Point};
use parclust_data::{read_chunked, seed_spreader, ChunkedWriter};
use proptest::prelude::*;

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
