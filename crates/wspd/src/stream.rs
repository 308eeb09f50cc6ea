//! Streaming (bounded-batch) well-separated pair production.
//!
//! [`wspd_stream_batches`] delivers exactly the pair set of
//! [`crate::wspd_materialize`] but never more than `cap` pairs at once:
//! batches are handed to the caller's callback and cleared. This is the
//! ingestion side of the bounded-memory pipeline: batches flow straight
//! into BCCP computation and streaming Kruskal merges instead of a
//! materialized `Vec` of the whole decomposition.
//!
//! The batcher has no recursion of its own: Algorithm 1 is
//! [`crate::wspd_resume`]'s. One walk from the root keeps, as the task
//! list, every node or pair state whose nodes cover fewer than
//! `PAIR_GRAIN` points, plus every well-separated pair reached above that
//! size. The tasks are sorted by the end of the span of positions they
//! cover, then the span's length, then their nodes, so a region's inner
//! pairs stream before the pairs that join it to its neighbours. Waves of
//! tasks are then walked in parallel, each task by its own `wspd_resume`,
//! which stays on one thread below the grain and so emits the task's pairs
//! in depth-first order.
//!
//! The stream is the tasks' outputs concatenated in task order, and batch
//! boundaries are fixed `cap`-sized windows of it. Neither depends on the
//! pool width, which is the contract `tests/streaming_semantics.rs` pins.
//! Production of wave `k+1` overlaps with consumption of wave `k` (one
//! `rayon::join`). Consumers that need scheduling-independent output
//! re-sort, exactly as they do for the materialized path.

use parclust_kdtree::KdTree;
use rayon::prelude::*;

use crate::policy::SeparationPolicy;
use crate::traverse::{wspd_resume, NodePair, OpenState, Step, PAIR_GRAIN};

/// Beyond the first thread, each thread adds `1/WAVES` of the points all
/// tasks cover to a wave.
const WAVES: usize = 64;

/// Enumerate the WSPD of `tree` under `policy`, delivering pairs in batches
/// of at most `cap`. `on_batch` receives a buffer of canonically-ordered
/// (`a < b`) pairs; the buffer is cleared after each call, so callers must
/// consume it before returning. Batch boundaries depend only on the tree,
/// the policy, and `cap` — never on the worker count.
pub fn wspd_stream_batches<const D: usize, P, F>(
    tree: &KdTree<D>,
    policy: &P,
    cap: usize,
    on_batch: &mut F,
) where
    P: SeparationPolicy<D>,
    F: FnMut(&mut Vec<NodePair>) + Send,
{
    assert!(cap >= 1, "batch capacity must be positive");
    if tree.len() <= 1 {
        return;
    }
    let _span = parclust_obs::span!("wspd.stream", points = tree.len());
    let tasks = task_list(tree, policy);
    // Each task's pairs, canonical and at exact capacity: a wave's output
    // is held until it is drained.
    let produce = |wave: &[OpenState]| -> Vec<Vec<NodePair>> {
        wave.par_iter()
            .map(|&task| {
                wspd_resume(
                    tree,
                    policy,
                    &[task],
                    &|_| Step::Expand,
                    &|_, _| Step::Expand,
                    &Some,
                )
                .iter()
                .map(|s| {
                    let (a, b) = s.nodes();
                    (a.min(b), a.max(b))
                })
                .collect()
            })
            .collect()
    };
    // A task's output grows with the points it covers, so waves are cut by
    // points. One thread gains nothing from the overlap, so there every
    // task is its own wave. The stream does not depend on where waves are
    // cut.
    let total: usize = tasks.iter().map(|t| t.points(tree)).sum();
    let budget = (rayon::current_num_threads() - 1) * total / WAVES;
    let mut points = 0;
    let mut waves = tasks.split_inclusive(|t| {
        points += t.points(tree);
        let cut = points >= budget;
        if cut {
            points = 0;
        }
        cut
    });

    let mut batch: Vec<NodePair> = Vec::with_capacity(cap.min(1 << 20));
    let mut current = waves.next().map(produce);
    while let Some(produced) = current {
        let next_wave = waves.next();
        // Overlap: drain wave k into batches (and the consumer) while the
        // pool walks wave k+1.
        let ((), next) = rayon::join(
            || {
                for pair in produced.into_iter().flatten() {
                    batch.push(pair);
                    if batch.len() >= cap {
                        on_batch(&mut batch);
                        batch.clear();
                    }
                }
            },
            || next_wave.map(produce),
        );
        current = next;
    }
    if !batch.is_empty() {
        on_batch(&mut batch);
        batch.clear();
    }
}

/// The producer's tasks in stream order: the states one walk from the root
/// keeps below `PAIR_GRAIN` points, and the well-separated pairs it reaches
/// above it.
fn task_list<const D: usize, P: SeparationPolicy<D>>(
    tree: &KdTree<D>,
    policy: &P,
) -> Vec<OpenState> {
    let keep_below_grain = |points: usize| {
        if points < PAIR_GRAIN {
            Step::Keep
        } else {
            Step::Expand
        }
    };
    let mut tasks = wspd_resume(
        tree,
        policy,
        &[OpenState::node(tree.root())],
        &|a| keep_below_grain(tree.node_size(a)),
        &|a, b| keep_below_grain(tree.node_size(a) + tree.node_size(b)),
        &Some,
    );
    tasks.sort_unstable_by_key(|s| {
        let span = s.span(tree);
        (span.end, span.end - span.start, *s)
    });
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::GeometricSep;
    use crate::traverse::wspd_materialize;
    use parclust_geom::Point;
    use rand::prelude::*;

    fn random_points<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut c = [0.0; D];
                for x in c.iter_mut() {
                    *x = rng.gen_range(-100.0..100.0);
                }
                Point(c)
            })
            .collect()
    }

    fn streamed_union<const D: usize>(tree: &KdTree<D>, cap: usize) -> Vec<NodePair> {
        let mut all = Vec::new();
        let mut batches = 0usize;
        wspd_stream_batches(
            tree,
            &GeometricSep::PAPER_DEFAULT,
            cap,
            &mut |batch: &mut Vec<NodePair>| {
                assert!(!batch.is_empty(), "empty batches are never delivered");
                assert!(
                    batch.len() <= cap,
                    "batch of {} exceeds cap {cap}",
                    batch.len()
                );
                all.extend_from_slice(batch);
                batches += 1;
            },
        );
        // Every batch except possibly the last is exactly full.
        if batches > 1 {
            assert!(all.len() > (batches - 1) * cap - cap, "uneven batching");
        }
        all
    }

    #[test]
    fn batched_union_equals_materialized() {
        let pts = random_points::<2>(400, 1);
        let tree = KdTree::build(&pts);
        let want = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
        for cap in [1usize, 7, 64, 1000, usize::MAX / 2] {
            let mut got = streamed_union(&tree, cap);
            got.sort_unstable();
            assert_eq!(got, want, "cap={cap}");
        }
    }

    #[test]
    fn batched_union_equals_materialized_3d() {
        let pts = random_points::<3>(256, 2);
        let tree = KdTree::build(&pts);
        let want = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
        let mut got = streamed_union(&tree, 33);
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn deterministic_batch_boundaries() {
        let pts = random_points::<2>(300, 3);
        let tree = KdTree::build(&pts);
        let runs: Vec<Vec<Vec<NodePair>>> = (0..2)
            .map(|_| {
                let mut batches = Vec::new();
                wspd_stream_batches(
                    &tree,
                    &GeometricSep::PAPER_DEFAULT,
                    50,
                    &mut |b: &mut Vec<NodePair>| batches.push(b.clone()),
                );
                batches
            })
            .collect();
        assert_eq!(runs[0], runs[1], "batch boundaries must be reproducible");
    }

    /// The producer's contract: pools of width 2/4/8, on input above
    /// `PAIR_GRAIN`, deliver batches that are element-for-element identical
    /// — contents *and* boundaries — to a width-1 pool's, for caps
    /// straddling the wave size.
    #[test]
    fn parallel_batches_identical_to_sequential_across_widths() {
        let pts = random_points::<2>(4096, 5);
        let tree = KdTree::build(&pts);
        let in_pool = |threads: usize, cap: usize| -> Vec<Vec<NodePair>> {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| {
                    let mut batches = Vec::new();
                    wspd_stream_batches(
                        &tree,
                        &GeometricSep::PAPER_DEFAULT,
                        cap,
                        &mut |b: &mut Vec<NodePair>| batches.push(b.clone()),
                    );
                    batches
                })
        };
        for cap in [97usize, 4096] {
            let baseline = in_pool(1, cap);
            assert!(baseline.len() > 1, "want a multi-batch scenario");
            for threads in [2usize, 4, 8] {
                let got = in_pool(threads, cap);
                assert_eq!(
                    got, baseline,
                    "cap={cap}: batches differ at {threads} threads"
                );
            }
        }
    }

    /// Two 13×13×13 integer grids far apart, every 7th point doubled: the
    /// grids tie on diameters everywhere, each holds more than `PAIR_GRAIN`
    /// points, and the pair joining them is well-separated above it.
    fn twin_grids_with_duplicates() -> Vec<Point<3>> {
        let mut pts = Vec::new();
        for off in [0.0, 1000.0] {
            for i in 0..13 {
                for j in 0..13 {
                    for k in 0..13 {
                        pts.push(Point([off + i as f64, j as f64, k as f64]));
                    }
                }
            }
        }
        let dups: Vec<Point<3>> = pts.iter().step_by(7).copied().collect();
        pts.extend(dups);
        pts
    }

    #[test]
    fn tie_heavy_grid_batches_identical_across_widths() {
        let pts = twin_grids_with_duplicates();
        let tree = KdTree::build(&pts);
        let policy = GeometricSep::PAPER_DEFAULT;
        let tasks = task_list(&tree, &policy);
        let size = |s: &OpenState| {
            let (a, b) = s.nodes();
            tree.node_size(a) + tree.node_size(b)
        };
        let is_node = |s: &OpenState| *s == OpenState::node(s.nodes().0);
        assert!(tasks.iter().any(is_node), "no kept node");
        assert!(
            tasks.iter().any(|s| !is_node(s) && size(s) < PAIR_GRAIN),
            "no kept pair"
        );
        assert!(
            tasks.iter().any(|s| !is_node(s) && size(s) >= PAIR_GRAIN),
            "no one-pair task"
        );

        let in_pool = |threads: usize, cap: usize| -> Vec<Vec<NodePair>> {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| {
                    let mut batches = Vec::new();
                    wspd_stream_batches(&tree, &policy, cap, &mut |b: &mut Vec<NodePair>| {
                        batches.push(b.clone())
                    });
                    batches
                })
        };
        let want = wspd_materialize(&tree, &policy);
        for cap in [61usize, 5000] {
            let baseline = in_pool(1, cap);
            let mut all: Vec<NodePair> = baseline.concat();
            all.sort_unstable();
            assert_eq!(all, want, "cap={cap}: not the materialized pair set");
            for threads in [2usize, 4, 8] {
                assert_eq!(
                    in_pool(threads, cap),
                    baseline,
                    "cap={cap}: batches differ at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn tiny_inputs_stream_cleanly() {
        let tree = KdTree::build(&[Point([0.0, 0.0])]);
        let mut calls = 0;
        wspd_stream_batches(
            &tree,
            &GeometricSep::PAPER_DEFAULT,
            4,
            &mut |_: &mut Vec<NodePair>| calls += 1,
        );
        assert_eq!(calls, 0, "singleton has no pairs");

        let tree = KdTree::build(&[Point([0.0, 0.0]), Point([1.0, 1.0])]);
        let mut pairs = Vec::new();
        wspd_stream_batches(
            &tree,
            &GeometricSep::PAPER_DEFAULT,
            4,
            &mut |b: &mut Vec<NodePair>| pairs.extend_from_slice(b),
        );
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn duplicates_stream_to_full_cover() {
        let mut pts = random_points::<2>(60, 4);
        for i in 0..20 {
            pts.push(pts[i % 6]);
        }
        let tree = KdTree::build(&pts);
        let want = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
        let mut got = streamed_union(&tree, 13);
        got.sort_unstable();
        assert_eq!(got, want);
    }
}
