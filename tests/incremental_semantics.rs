//! Differential mutation harness: the dynamic-model contract.
//!
//! For *every* generated mutation sequence — inserts, deletes, mixed
//! batches, any batch granularity, `rebuild()` (full recompute, the
//! compaction primitive) interleaved at random steps, at 1/2/4/8
//! threads — the incrementally maintained model must
//! be **bit identical** to a from-scratch HDBSCAN\* build over the
//! surviving live points: same core distances, same ordered dendrogram,
//! same condensed tree and labels.
//!
//! This is the pin that keeps carrying unaffected core distances an
//! optimization rather than a semantics change. Point sets are tie-heavy
//! (integer-ish grids with duplicates) on purpose: exact-distance ties are
//! where carried state goes wrong first. The case count honors
//! `PROPTEST_CASES`.

use parclust::{condense_tree, dendrogram_par, hdbscan_memogfk, Point};
use parclust_dyn::{DynConfig, DynamicModel, MutationBatch, MutationPath};
use proptest::prelude::*;

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

/// Everything the model publishes, as bits, for exact comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    cd: Vec<u64>,
    heights: Vec<u64>,
    left: Vec<u32>,
    right: Vec<u32>,
    edge_u: Vec<u32>,
    edge_v: Vec<u32>,
    cond_parent: Vec<u32>,
    labels: Vec<u32>,
    lambdas: Vec<u64>,
}

fn fingerprint<const D: usize>(m: &DynamicModel<D>) -> Fingerprint {
    let d = m.dendrogram();
    let c = m.condensed();
    Fingerprint {
        cd: m.core_distances().iter().map(|x| x.to_bits()).collect(),
        heights: d.height.iter().map(|x| x.to_bits()).collect(),
        left: d.left.clone(),
        right: d.right.clone(),
        edge_u: d.edge_u.clone(),
        edge_v: d.edge_v.clone(),
        cond_parent: c.parent.clone(),
        labels: c.point_cluster.clone(),
        lambdas: c.point_lambda.iter().map(|x| x.to_bits()).collect(),
    }
}

/// The oracle: the ordinary batch pipeline over the current live points.
fn scratch_fingerprint<const D: usize>(
    pts: &[Point<D>],
    min_pts: usize,
    mcs: usize,
) -> Fingerprint {
    let h = hdbscan_memogfk(pts, min_pts);
    let d = dendrogram_par(pts.len(), &h.edges, 0);
    let c = condense_tree(&d, mcs);
    Fingerprint {
        cd: h.core_distances.iter().map(|x| x.to_bits()).collect(),
        heights: d.height.iter().map(|x| x.to_bits()).collect(),
        left: d.left,
        right: d.right,
        edge_u: d.edge_u,
        edge_v: d.edge_v,
        cond_parent: c.parent,
        labels: c.point_cluster,
        lambdas: c.point_lambda.iter().map(|x| x.to_bits()).collect(),
    }
}

/// Raw generated ops: insert coordinates, delete seeds that are mapped
/// onto valid live indices at apply time, and whether to `rebuild()`
/// after the batch.
type RawOp = (Vec<(i32, i32, u8)>, Vec<u16>, bool);

fn grid_point(x: i32, y: i32, jitter: u8) -> Point<2> {
    // Integer grid plus quantized jitter: many exact duplicates and ties.
    Point([
        x as f64 + jitter as f64 * 0.25,
        y as f64 - jitter as f64 * 0.125,
    ])
}

/// Map delete seeds to distinct live indices, always leaving at least one
/// survivor so the model stays non-empty.
fn resolve_deletes(n: usize, raw: &[u16]) -> Vec<usize> {
    let mut out = std::collections::BTreeSet::new();
    for &r in raw {
        if out.len() + 1 >= n {
            break;
        }
        out.insert(r as usize % n);
    }
    out.into_iter().collect()
}

fn batch_from_raw(n_live: usize, op: &RawOp) -> MutationBatch<2> {
    MutationBatch {
        inserts: op.0.iter().map(|&(x, y, j)| grid_point(x, y, j)).collect(),
        deletes: resolve_deletes(n_live, &op.1),
    }
}

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec(
        (
            prop::collection::vec((0i32..24, 0i32..24, 0u8..4), 0..7),
            prop::collection::vec(any::<u16>(), 0..7),
            any::<bool>(),
        ),
        1..max_ops,
    )
}

fn initial_points_strategy(max_n: usize) -> impl Strategy<Value = Vec<Point<2>>> {
    prop::collection::vec((0i32..24, 0i32..24, 0u8..4), 1..max_n).prop_map(|raw| {
        raw.into_iter()
            .map(|(x, y, j)| grid_point(x, y, j))
            .collect()
    })
}

/// Where a sequence calls `rebuild()`.
#[derive(Debug, Clone, Copy)]
enum Rebuilds {
    /// After the batches whose generated flag is set.
    AsGenerated,
    /// After every batch: every core distance recomputed at every step.
    EveryStep,
}

/// Run a whole sequence, checking the model against the oracle after every
/// batch and every rebuild, and return the final fingerprint.
fn run_sequence(
    init: &[Point<2>],
    ops: &[RawOp],
    min_pts: usize,
    mcs: usize,
    rebuilds: Rebuilds,
    check_each_step: bool,
) -> Fingerprint {
    let mut m = DynamicModel::new(init, min_pts, mcs, DynConfig::default());
    let check = |m: &DynamicModel<2>, what: String| {
        if check_each_step {
            let want = scratch_fingerprint(m.points(), min_pts, mcs);
            assert_eq!(fingerprint(m), want, "{what} diverged from scratch");
        }
    };
    for (step, op) in ops.iter().enumerate() {
        let batch = batch_from_raw(m.len(), op);
        if !batch.is_empty() {
            let report = m.apply(&batch).expect("generated batches are valid");
            assert_eq!(report.n, m.len());
            assert_eq!(
                report.path == MutationPath::Rebuild,
                report.recomputed == report.n
            );
            check(
                &m,
                format!(
                    "step {step} ({} ins / {} del, {} recomputed)",
                    report.inserted, report.deleted, report.recomputed
                ),
            );
        }
        if matches!(rebuilds, Rebuilds::EveryStep) || op.2 {
            let report = m.rebuild();
            assert_eq!(
                (report.path, report.recomputed),
                (MutationPath::Rebuild, m.len())
            );
            check(&m, format!("rebuild after step {step}"));
        }
    }
    fingerprint(&m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Core property: after every batch of every generated sequence, the
    /// incremental model equals a from-scratch rebuild, bit for bit —
    /// wherever rebuilds interleave.
    #[test]
    fn every_mutation_sequence_matches_scratch(
        init in initial_points_strategy(50),
        ops in ops_strategy(5),
        min_pts in 1usize..8,
        mcs in 2usize..6,
    ) {
        let last = run_sequence(&init, &ops, min_pts, mcs, Rebuilds::AsGenerated, true);
        // Belt and braces: the final state also matches the same sequence
        // with every core distance recomputed after every batch.
        let reference =
            run_sequence(&init, &ops, min_pts, mcs, Rebuilds::EveryStep, false);
        prop_assert_eq!(last, reference);
    }

    /// Batch granularity is irrelevant: one big batch of inserts equals the
    /// same inserts applied one at a time (both equal scratch).
    #[test]
    fn batch_granularity_is_irrelevant_for_inserts(
        init in initial_points_strategy(40),
        raw_inserts in prop::collection::vec((0i32..24, 0i32..24, 0u8..4), 1..12),
        min_pts in 1usize..6,
        mcs in 2usize..5,
    ) {
        let inserts: Vec<Point<2>> =
            raw_inserts.iter().map(|&(x, y, j)| grid_point(x, y, j)).collect();
        let mut coarse = DynamicModel::new(&init, min_pts, mcs, DynConfig::default());
        coarse
            .apply(&MutationBatch { inserts: inserts.clone(), deletes: vec![] })
            .unwrap();
        let mut fine = DynamicModel::new(&init, min_pts, mcs, DynConfig::default());
        for p in &inserts {
            fine.apply(&MutationBatch { inserts: vec![*p], deletes: vec![] })
                .unwrap();
        }
        prop_assert_eq!(fingerprint(&coarse), fingerprint(&fine));
        prop_assert_eq!(
            fingerprint(&coarse),
            scratch_fingerprint(coarse.points(), min_pts, mcs)
        );
    }

    /// The whole sequence is bit-identical at every thread count, and the
    /// 1-thread run equals scratch.
    #[test]
    fn sequences_bit_identical_across_thread_counts(
        init in initial_points_strategy(36),
        ops in ops_strategy(4),
        min_pts in 1usize..6,
        mcs in 2usize..5,
    ) {
        let baseline = in_pool(1, || {
            run_sequence(&init, &ops, min_pts, mcs, Rebuilds::AsGenerated, true)
        });
        for threads in [2usize, 4, 8] {
            let run = in_pool(threads, || {
                run_sequence(&init, &ops, min_pts, mcs, Rebuilds::AsGenerated, false)
            });
            prop_assert_eq!(
                baseline.clone(),
                run,
                "sequence diverged at {} threads",
                threads
            );
        }
    }
}

/// Smooth (tie-free) coordinates exercise the opposite regime from the
/// grids above; a fixed-seed sweep keeps the per-case cost predictable.
#[test]
fn smooth_coordinate_sequences_match_scratch() {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for (min_pts, mcs) in [(1usize, 2usize), (4, 3), (7, 5)] {
        let init: Vec<Point<2>> = (0..80)
            .map(|_| Point([rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)]))
            .collect();
        // Rebuilds interleaved never, at random steps, or after every batch.
        for rebuild_odds in [0.0, 0.5, 1.0] {
            let mut m = DynamicModel::new(&init, min_pts, mcs, DynConfig::default());
            for _ in 0..4 {
                let inserts: Vec<Point<2>> = (0..rng.gen_range(0..6))
                    .map(|_| Point([rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)]))
                    .collect();
                let raw: Vec<u16> = (0..rng.gen_range(0..5)).map(|_| rng.gen()).collect();
                let deletes = resolve_deletes(m.len(), &raw);
                if inserts.is_empty() && deletes.is_empty() {
                    continue;
                }
                m.apply(&MutationBatch { inserts, deletes }).unwrap();
                if rng.gen_bool(rebuild_odds) {
                    m.rebuild();
                }
                assert_eq!(
                    fingerprint(&m),
                    scratch_fingerprint(m.points(), min_pts, mcs),
                    "rebuild odds {rebuild_odds} min_pts={min_pts}"
                );
            }
        }
    }
}
